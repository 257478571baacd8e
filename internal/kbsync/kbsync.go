// Package kbsync is the federation layer of the knowledge plane: it lets
// selfheald daemons exchange knowledge-base deltas over HTTP and
// converge at runtime, extending §5.1's portability argument from files
// a human carries to a protocol the fleet runs itself.
//
// Knowledge moves by one mechanism: the Syncer keeps one long-poll
// parked on each peer, the peer answers it the moment it publishes, and
// a pull that brought news is followed at once. A poll names its puller,
// so the peer sleeps through publishes of points that puller sent
// (Node.Echoes). Deltas are versioned by
// the producer's publish sequence (synopsis.Shared.Seq): a peer that was
// current at sequence s asks GET /kb/delta?since=s and receives exactly
// the observations published after s, named by the producer's
// symptom-space table so a heterogeneous receiver remaps them exactly,
// as a snapshot load does.
// Applying a delta follows synopsis.Merge semantics — points already
// present in the receiving knowledge base, under their canonical
// identity, are dropped — which makes application idempotent and the
// whole plane convergent: in any connected topology (hub/spoke, chain,
// ring, full mesh), under any poll order, every node's knowledge base
// settles on the same canonical point set as one big synopsis.Merge of
// all nodes' snapshots, because applied foreign points re-enter each
// node's own delta log and relay transitively.
package kbsync

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/detect"
	"selfheal/internal/synopsis"
)

// Node wraps a shared knowledge base as one federation participant: it
// produces deltas from the KB's arrival log and applies peers' deltas
// with Merge semantics. Local learners keep writing to the Shared
// directly — the node tails the KB's own log to know which canonical
// points are already present, so deduplication covers every write path,
// not just the ones routed through it.
type Node struct {
	kb    *synopsis.Shared
	space *detect.SymptomSpace
	epoch string

	mu sync.Mutex // guards seen and scanned; serializes appliers
	// seen holds the canonical key of every point known to be in the KB
	// as of sequence scanned.
	seen    map[string]struct{}
	scanned uint64
	// echo is the latest run of consecutive publishes that each applied
	// a delta pulled from one peer life; see Echoes.
	echo atomic.Pointer[echoRun]
}

// echoRun says every publish in [start, end] applied a delta from the
// node whose epoch is from.
type echoRun struct {
	from       string
	start, end uint64
}

// NewNode makes kb a federation participant whose vectors live in space
// (nil: detect.DefaultSymptomSpace, the space every harness registers
// its target schema into). The node mints a fresh epoch: sequences it
// publishes are only meaningful alongside it, so a consumer can tell a
// restarted node (new epoch, incomparable numbering) from a continued
// one — a bare cursor from a previous life could silently alias into
// the new history.
func NewNode(kb *synopsis.Shared, space *detect.SymptomSpace) *Node {
	if space == nil {
		space = detect.DefaultSymptomSpace
	}
	buf := make([]byte, 8)
	if _, err := cryptorand.Read(buf); err != nil {
		// Entropy exhaustion is not a reason to refuse to heal; fall
		// back to the process clock, still unique across restarts.
		binary.LittleEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
	}
	return &Node{
		kb:    kb,
		space: space,
		epoch: hex.EncodeToString(buf),
		seen:  make(map[string]struct{}),
	}
}

// KB returns the wrapped knowledge base.
func (n *Node) KB() *synopsis.Shared { return n.kb }

// Space returns the symptom space deltas are remapped into.
func (n *Node) Space() *detect.SymptomSpace { return n.space }

// Seq returns the knowledge base's current publish sequence.
func (n *Node) Seq() uint64 { return n.kb.Seq() }

// Epoch identifies this node's process life; see NewNode.
func (n *Node) Epoch() string { return n.epoch }

// Delta captures everything the knowledge base published after since,
// named in the node's space and stamped with its epoch — the payload
// /kb/delta serves.
func (n *Node) Delta(since uint64) *synopsis.Delta {
	d := synopsis.CaptureDelta(n.kb, since, n.space)
	d.Epoch = n.epoch
	return d
}

// catchUp tails the KB's arrival log into the seen set, so points that
// arrived through any path — local learning, a snapshot preload, an
// earlier delta — count as present. Callers hold n.mu.
func (n *Node) catchUp() {
	pts, seq := n.kb.DeltaSince(n.scanned)
	for _, p := range pts {
		n.seen[synopsis.CanonicalKey(p)] = struct{}{}
	}
	n.scanned = seq
}

// ApplyDelta folds a peer's delta into the knowledge base with Merge
// semantics: every vector is remapped by name into the node's space
// (positionally when the delta is unnamed) and canonicalized — the step
// Merge takes, synopsis.Delta.Canonical — and added only if its
// canonical identity is not already present. It returns how many points
// were new. Applying the same delta twice is identical to
// applying it once; application order across peers does not change the
// final canonical point set.
//
// A local learner racing between the presence check and the batched add
// can still insert an identical point concurrently — the duplicate is
// harmless (the ranking learners are duplicate-insensitive at the exact
// point level) and disappears from every exported snapshot at the next
// Merge.
func (n *Node) ApplyDelta(d *synopsis.Delta) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.catchUp()
	var fresh []synopsis.Point
	d.Canonical(n.space, func(p synopsis.Point, key string) {
		if _, dup := n.seen[key]; !dup {
			n.seen[key] = struct{}{}
			fresh = append(fresh, p)
		}
	})
	if len(fresh) > 0 {
		n.noteEcho(d.Epoch)
		n.kb.AddBatch(fresh)
	}
	return len(fresh)
}

// noteEcho records, just before a batch publishes, that the next publish
// carries points from the node whose epoch is from — first, so a parked
// poll the publish wakes already sees it. If another writer publishes
// in between, the batch lands past the run's end, which then trails the
// sequence for good: Echoes never answers from that run again, and no
// later batch extends it. Callers hold n.mu.
func (n *Node) noteEcho(from string) {
	next := n.kb.Seq() + 1
	run := &echoRun{from: from, start: next, end: next}
	if prev := n.echo.Load(); prev != nil && prev.from == from && prev.end+1 == next {
		run.start = prev.start
	}
	n.echo.Store(run)
}

// Echoes reports whether every publish after since applied points
// pulled from the node whose epoch is from, so that node already holds
// them all: its parked poll need not wake for them. On a two-node fleet
// whose daemons pull each other, every point B applies from A would
// otherwise wake A's poll on B only to hand A its own points back.
// Nothing is withheld: once the poll wakes, or its wait ends, it fetches
// everything after since, echoes included.
func (n *Node) Echoes(since uint64, from string) bool {
	run := n.echo.Load()
	return from != "" && run != nil && run.from == from &&
		run.start <= since+1 && run.end == n.kb.Seq() && since < run.end
}

// PeerStatus is one peer's sync state, as /metrics reports it.
type PeerStatus struct {
	// URL is the peer's base URL.
	URL string
	// Seq is the peer's publish sequence as of the furthest successful
	// pull — the cursor the next pull presents. Within one peer life it
	// only moves forward.
	Seq uint64
	// Pulls counts successful pulls (including not-modified ones).
	Pulls uint64
	// Points counts observations this peer contributed that were new.
	Points uint64
	// Failures counts consecutive failed pulls; zero means healthy.
	Failures uint64
	// LastErr is the most recent pull error, "" after a success.
	LastErr string
}

// peer is the syncer's per-peer state.
type peer struct {
	url string

	mu       sync.Mutex
	seq      uint64
	epoch    string // the peer life seq belongs to
	etag     string
	pulls    uint64
	points   uint64
	failures uint64
	lastErr  string
}

// The background loop's cadence is fixed, not configured: cadence is set
// by publishes (the peer parks each pull until it has news, and a pull
// that brought news is followed at once), so the only timers left are
// how long a pull may stay parked and how the wait after an empty or
// failed pull grows.
const (
	// pollWait is the ?wait= every background pull carries: below the
	// default client timeout and the server's 30s park cap, so neither
	// end kills a parked poll. An idle fleet holds one open request per
	// peer and renews it this often.
	pollWait = 8 * time.Second
	// minGap is the first backoff step: the wait after a healthy peer
	// answered without news (a parked poll timing out, or a closing peer
	// answering 304 at once, which must not be spun on). Each
	// consecutive failure doubles it.
	minGap = 500 * time.Millisecond
	// defaultMaxBackoff caps failure backoff when Config.MaxBackoff is unset.
	defaultMaxBackoff = 30 * time.Second
)

// Config parameterizes a Syncer.
type Config struct {
	// Peers are the base URLs of the nodes to pull from, e.g.
	// "http://host:8701". Trailing slashes are tolerated.
	Peers []string
	// MaxBackoff caps the exponential backoff applied after consecutive
	// failures (default 30s).
	MaxBackoff time.Duration
	// Client is the HTTP client (default: 10s-timeout client). A timeout
	// at or below the 8s poll wait shortens the wait to half the timeout,
	// so the transport never kills a parked poll.
	Client *http.Client
	// Seed makes the jitter deterministic for tests. Zero (the default)
	// seeds from the process clock: a fleet of daemons started together
	// with identical configs must NOT share jitter streams, or they all
	// poll the hub at the same instants — the herd the jitter exists to
	// break up.
	Seed int64
	// OnStop, when set, receives the final per-peer status snapshot as
	// Run exits on context cancellation — the operator's last look at
	// why a peer was failing (see httpapi.Collector.RecordFinalPeers).
	OnStop func([]PeerStatus)
}

// normalizePeers trims, defaults the scheme, and drops empty peer URLs.
func normalizePeers(urls []string) []string {
	var out []string
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		out = append(out, u)
	}
	return out
}

// Syncer keeps one long-poll parked on each of N peers, applying
// everything it pulls through the node, with per-peer exponential
// backoff while a peer fails. Start it with Run; pull by hand, without
// parking, with SyncOnce.
type Syncer struct {
	node  *Node
	cfg   Config
	wait  time.Duration // pollWait, shortened to fit under cfg.Client's timeout
	peers []*peer
}

// NewSyncer builds a syncer over node for cfg.Peers.
func NewSyncer(node *Node, cfg Config) (*Syncer, error) {
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = defaultMaxBackoff
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	s := &Syncer{node: node, cfg: cfg, wait: pollWait}
	if t := cfg.Client.Timeout; t > 0 && t <= s.wait {
		s.wait = t / 2
	}
	for _, u := range normalizePeers(cfg.Peers) {
		s.peers = append(s.peers, &peer{url: u})
	}
	if len(s.peers) == 0 {
		return nil, fmt.Errorf("kbsync: no peers configured")
	}
	return s, nil
}

// Peers reports every peer's sync state, in configuration order.
func (s *Syncer) Peers() []PeerStatus {
	out := make([]PeerStatus, 0, len(s.peers))
	for _, p := range s.peers {
		p.mu.Lock()
		out = append(out, PeerStatus{
			URL: p.url, Seq: p.seq, Pulls: p.pulls, Points: p.points,
			Failures: p.failures, LastErr: p.lastErr,
		})
		p.mu.Unlock()
	}
	return out
}

// Run long-polls every peer until ctx is cancelled: one goroutine per
// peer, each pull parked by the peer until it publishes (or the wait
// elapses). A pull that moved the cursor is followed at once, so
// publishes made while it was in flight ride the next one together: at
// most one request per peer per round trip. An empty or failed pull
// waits out backoff first. On cancellation the final per-peer statuses
// are flushed to OnStop.
func (s *Syncer) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for i, p := range s.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.cfg.Seed + int64(i)))
			for ctx.Err() == nil {
				if _, news, _ := s.syncPeer(ctx, p, s.wait); news {
					continue
				}
				select {
				case <-ctx.Done():
				case <-time.After(jitter(rng, s.backoff(p))):
				}
			}
		}(i, p)
	}
	wg.Wait()
	if s.cfg.OnStop != nil {
		s.cfg.OnStop(s.Peers())
	}
}

// jitter stretches d by up to 50%, never shortening it.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// backoff returns the delay before p's next background pull after one
// that brought no news: minGap×2^failures — minGap itself while p is
// healthy — capped at MaxBackoff.
func (s *Syncer) backoff(p *peer) time.Duration {
	p.mu.Lock()
	n := p.failures
	p.mu.Unlock()
	return min(minGap<<min(n, 16), s.cfg.MaxBackoff)
}

// SyncOnce pulls every peer once, in configuration order and without
// parking, whatever backoff the background loop is sitting out, and
// returns how many new points it applied — the on-demand step behind
// POST /admin/sync. While Run is going a parked poll overlaps every
// such pull, so a point may be counted by either. Errors are joined,
// not fatal to the remaining peers.
func (s *Syncer) SyncOnce(ctx context.Context) (int, error) {
	added := 0
	var errs []error
	for _, p := range s.peers {
		n, _, err := s.syncPeer(ctx, p, 0)
		added += n
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.url, err))
		}
	}
	return added, errors.Join(errs...)
}

// syncPeer performs one conditional pull from p, parked by the peer for
// up to wait when it has nothing new, and applies the result. It reports
// how many points were new and whether the pull moved p's cursor — news
// worth pulling again for at once. The request carries the epoch the
// cursor came from, so a peer that restarted (new epoch, incomparable
// sequence numbering) answers with its full history instead of a
// silently misaligned tail. It also carries this node's own epoch, so a
// parked poll sleeps through the peer's publishes of points it pulled
// from this node (Node.Echoes).
func (s *Syncer) syncPeer(ctx context.Context, p *peer, wait time.Duration) (int, bool, error) {
	p.mu.Lock()
	since, epoch, etag := p.seq, p.epoch, p.etag
	p.mu.Unlock()

	q := "/kb/delta?since=" + strconv.FormatUint(since, 10) + "&from=" + s.node.epoch
	if epoch != "" {
		q += "&epoch=" + url.QueryEscape(epoch)
	}
	if wait > 0 {
		q += "&wait=" + strconv.FormatInt(wait.Milliseconds(), 10) + "ms"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+q, nil)
	if err != nil {
		return 0, false, s.fail(p, err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Our own shutdown (or caller cancellation) killed the
			// request mid-flight. That is not the peer's fault: keep
			// the last real status so the final OnStop flush reports
			// why a peer was failing, not an artifact of stopping.
			return 0, false, err
		}
		return 0, false, s.fail(p, err)
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusNotModified:
		s.ok(p, since, epoch, etag, 0)
		return 0, false, nil
	case http.StatusOK:
	default:
		return 0, false, s.fail(p, fmt.Errorf("GET /kb/delta: %s", resp.Status))
	}
	d, err := synopsis.Decode(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return 0, false, err // cancelled mid-body; see above
		}
		return 0, false, s.fail(p, err)
	}
	added := s.node.ApplyDelta(d)
	return added, s.ok(p, d.Seq, d.Epoch, resp.Header.Get("ETag"), added), nil
}

// fail records a pull failure.
func (s *Syncer) fail(p *peer, err error) error {
	p.mu.Lock()
	p.failures++
	p.lastErr = err.Error()
	p.mu.Unlock()
	return err
}

// ok records a successful pull and reports whether it brought news worth
// pulling again for at once: the cursor moved within the peer's life, or
// the peer's first life was learned. Two pulls of one peer can be in
// flight at once (SyncOnce beside Run's parked poll) and land in either
// order, so within a peer life the cursor only moves forward; a new epoch
// resets it. A switch from one known life to another is not news: a peer
// that restarted is pulled again after one backoff step, and two daemons
// answering behind one address cannot spin the loop.
func (s *Syncer) ok(p *peer, seq uint64, epoch, etag string, added int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures = 0
	p.lastErr = ""
	p.pulls++
	p.points += uint64(added)
	newLife := epoch != "" && epoch != p.epoch
	if !newLife && seq <= p.seq {
		return false
	}
	firstLife := p.epoch == ""
	p.seq = seq
	if newLife {
		p.epoch = epoch
	}
	if etag != "" {
		p.etag = etag
	}
	return !newLife || firstLife
}
