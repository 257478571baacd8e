package kbsync

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/synopsis"
)

// Gossiper is the push half of federation: where the Syncer parks a pull
// on each peer, the gossiper pushes on publish. It hooks the knowledge
// base's publish notification (synopsis.Shared.OnPublish) and, whenever
// new observations land, POSTs the delta to Fanout peers sampled from a
// partial view of the fleet — epidemic style, so a fix published on one
// node reaches n nodes in O(log n) rounds of sub-millisecond pushes
// instead of O(poll interval).
//
// Propagation is two protocols stacked on self-terminating dedup:
//
//   - Rumor relay: a received push carries a rumor id ("epoch:seq" of its
//     origin) and a hop TTL. A receiver that has not seen the id applies
//     the delta and, if anything was actually new, relays the same rumor
//     (TTL-1) to Fanout further peers. The id cache (which also holds
//     the ids this node originated) kills re-deliveries before the body
//     is decoded — see Seen; the TTL bounds how far one rumor's
//     redundant copies chase each other.
//   - Re-origination: applied foreign points re-enter the local arrival
//     log, so the publish hook would push them onward as a fresh rumor
//     anyway. A Receive therefore holds the hook's wakeup back while it
//     applies and, on exit, advances the push cursor past its own
//     publish when that was the next in sequence, so steady state sends
//     each batch once. When a local write interleaved mid-apply the
//     sequence ends up ahead of the cursor and Receive wakes the push
//     loop itself: the local points go out, at worst beside a copy of
//     the relayed ones that teaches nobody and dies.
//
// Either way a rumor stops the moment it stops teaching anyone anything,
// which is the same convergence argument the pull plane makes: knowledge
// spreads exactly until every node's canonical point set is the Merge of
// everyone's history. The Syncer's parked polls remain the
// anti-entropy fallback that repairs nodes the epidemic missed — a
// partition healing, a dropped push, a TTL that expired short of the
// fleet's diameter.
type Gossiper struct {
	node *Node
	cfg  GossipConfig

	// signal wakes the push loop; buffered so a publish never blocks on
	// a push in flight (the loop re-reads the cursor, so one wakeup
	// covers any number of coalesced publishes).
	signal chan struct{}

	// paused parks the push plane (a drained node must stop spreading
	// rumors as well as refusing them); publishes made while paused are
	// pushed on resume.
	paused atomic.Bool

	rumorsOrigin    atomic.Uint64
	rumorsRelayed   atomic.Uint64
	rumorsReceived  atomic.Uint64
	rumorsDuplicate atomic.Uint64
	pushesFailed    atomic.Uint64
	pointsPushed    atomic.Uint64
	pointsReceived  atomic.Uint64

	mu       sync.Mutex
	rng      *rand.Rand
	peers    []string // full normalized peer set, Self excluded
	view     []string // current partial view, resampled every ViewRefresh pushes
	viewAge  int
	pushed   uint64 // publish sequence everything at or below is already pushed
	applying int    // Receive calls in flight; publishes meanwhile do not signal, the last Receive out does
	seen     map[string]time.Time
}

// GossipConfig parameterizes a Gossiper.
type GossipConfig struct {
	// Peers are the base URLs of the full known fleet, like
	// Config.Peers. The gossiper never contacts them all at once: each
	// push goes to Fanout peers drawn from a ViewSize partial view.
	Peers []string
	// Self is this node's own advertised base URL; it is dropped from
	// Peers and sent as X-KB-From so receivers can exclude the sender
	// when relaying. Optional.
	Self string
	// Fanout is how many peers each push or relay targets (default 3).
	Fanout int
	// TTL is the relay hop budget a fresh rumor starts with (default 4).
	// Fanout^TTL should comfortably exceed the fleet size; sparser
	// views (a ring) need TTLs near the topology's diameter, with the
	// pull fallback covering whatever the budget misses.
	TTL int
	// ViewSize is the partial-view size (default 2×Fanout, clamped to
	// the peer count): the node only ever talks to this many peers per
	// view generation, epidemic style, so fleet connection counts grow
	// O(n·ViewSize) instead of O(n²).
	ViewSize int
	// ViewRefresh is how many pushes a view generation serves before
	// being resampled (default 16).
	ViewRefresh int
	// SeenTTL is how long rumor ids are remembered (default 2m).
	SeenTTL time.Duration
	// Client is the HTTP client pushes ride (default 5s timeout).
	Client *http.Client
	// Seed makes peer sampling deterministic for tests; zero seeds from
	// the clock.
	Seed int64
}

// NewGossiper builds a gossiper over node and registers its
// push-on-publish hook. Pushes only leave once Run is started; publishes
// before that are coalesced into the first push.
func NewGossiper(node *Node, cfg GossipConfig) (*Gossiper, error) {
	self := ""
	if s := normalizePeers([]string{cfg.Self}); len(s) == 1 {
		self = s[0]
	}
	var peers []string
	for _, u := range normalizePeers(cfg.Peers) {
		if u != self {
			peers = append(peers, u)
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("kbsync: gossip needs at least one peer")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 4
	}
	if cfg.ViewSize <= 0 {
		cfg.ViewSize = 2 * cfg.Fanout
	}
	if cfg.ViewSize > len(peers) {
		cfg.ViewSize = len(peers)
	}
	if cfg.ViewRefresh <= 0 {
		cfg.ViewRefresh = 16
	}
	if cfg.SeenTTL <= 0 {
		cfg.SeenTTL = 2 * time.Minute
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	cfg.Self = self
	g := &Gossiper{
		node:   node,
		cfg:    cfg,
		signal: make(chan struct{}, 1),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		peers:  peers,
		seen:   make(map[string]time.Time),
	}
	node.KB().OnPublish(g.onPublish)
	return g, nil
}

// GossipStats is a point-in-time snapshot of a gossiper's counters, the
// numbers /metrics exposes.
type GossipStats struct {
	// RumorsOrigin counts rumors this node started (push-on-publish).
	RumorsOrigin uint64
	// RumorsRelayed counts received rumors passed on with TTL-1.
	RumorsRelayed uint64
	// RumorsReceived counts pushes accepted for application.
	RumorsReceived uint64
	// RumorsDuplicate counts pushes dropped by the rumor-id cache.
	RumorsDuplicate uint64
	// PushesFailed counts individual POSTs that failed (per target).
	PushesFailed uint64
	// PointsPushed counts observations sent, per successful target.
	PointsPushed uint64
	// PointsReceived counts observations applied from received pushes.
	PointsReceived uint64
}

// Stats snapshots the gossip counters.
func (g *Gossiper) Stats() GossipStats {
	return GossipStats{
		RumorsOrigin:    g.rumorsOrigin.Load(),
		RumorsRelayed:   g.rumorsRelayed.Load(),
		RumorsReceived:  g.rumorsReceived.Load(),
		RumorsDuplicate: g.rumorsDuplicate.Load(),
		PushesFailed:    g.pushesFailed.Load(),
		PointsPushed:    g.pointsPushed.Load(),
		PointsReceived:  g.pointsReceived.Load(),
	}
}

// onPublish is the Shared publish hook: it wakes the push loop, unless
// a Receive is applying — that publish is probably the apply's own, and
// the Receive settles the cursor and signals on its way out.
func (g *Gossiper) onPublish(uint64) {
	g.mu.Lock()
	applying := g.applying > 0
	g.mu.Unlock()
	if !applying {
		g.wake()
	}
}

// wake signals the push loop without blocking.
func (g *Gossiper) wake() {
	select {
	case g.signal <- struct{}{}:
	default:
	}
}

// Run pushes on every wakeup until ctx is cancelled. There is no timer:
// the three events that can leave the publish sequence ahead of the push
// cursor — a publish, a Receive that overlapped a local write, a resume
// — each signal the loop.
func (g *Gossiper) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-g.signal:
		}
		g.PushNow(ctx)
	}
}

// PushNow pushes everything published since the cursor as one fresh
// rumor to Fanout sampled peers, returning how many points it sent (0
// when current). Exposed for deterministic tests; Run calls it on every
// wakeup.
func (g *Gossiper) PushNow(ctx context.Context) int {
	if g.paused.Load() {
		return 0
	}
	g.mu.Lock()
	since := g.pushed
	g.mu.Unlock()
	d := g.node.Delta(since)
	if len(d.Points) == 0 {
		g.advance(d.Seq)
		return 0
	}
	id := g.node.Epoch() + ":" + strconv.FormatUint(d.Seq, 10)
	// Remember our own rumor: a peer that cannot tell who sent it (no
	// X-KB-From) relays it straight back.
	g.mu.Lock()
	g.remember(id, time.Now())
	g.mu.Unlock()
	targets := g.sample(g.cfg.Fanout, "")
	g.rumorsOrigin.Add(1)
	g.broadcast(ctx, d, id, g.cfg.TTL, targets)
	// Best-effort: failed targets are not retried — the next rumor or
	// the pull fallback repairs them. The cursor advances regardless.
	g.advance(d.Seq)
	return len(d.Points)
}

// SetPaused parks or resumes the push plane. While paused, PushNow and
// Receive are no-ops: nothing is sent, relayed, or applied. Resuming
// pushes whatever was published in the meantime.
func (g *Gossiper) SetPaused(paused bool) {
	g.paused.Store(paused)
	if !paused {
		g.wake()
	}
}

// advance moves the push cursor forward to seq (never backward).
func (g *Gossiper) advance(seq uint64) {
	g.mu.Lock()
	if seq > g.pushed {
		g.pushed = seq
	}
	g.mu.Unlock()
}

// Seen reports whether rumor id was already received or originated
// here, counting the duplicate when it was. The ops plane asks before it
// decodes a push body, so a re-delivery costs a map lookup.
// It does not record id: Receive does, atomically with its own check.
func (g *Gossiper) Seen(id string) bool {
	g.mu.Lock()
	exp, ok := g.seen[id]
	g.mu.Unlock()
	if !ok || time.Now().After(exp) {
		return false
	}
	g.rumorsDuplicate.Add(1)
	return true
}

// remember records rumor id, dropping expired ids on the way so the
// cache stays bounded on a node that only originates. Callers hold g.mu.
func (g *Gossiper) remember(id string, now time.Time) {
	for k, exp := range g.seen {
		if now.After(exp) {
			delete(g.seen, k)
		}
	}
	g.seen[id] = now.Add(g.cfg.SeenTTL)
}

// Receive applies a push a peer delivered (httpapi's POST /kb/push
// hands every push here) and relays it onward while it keeps teaching:
// a rumor already seen is dropped by id; a rumor whose points were all
// known is applied (0) and not relayed; fresh knowledge is relayed to
// Fanout more peers with one less hop of TTL. Returns how many points
// were new locally.
func (g *Gossiper) Receive(d *synopsis.Delta, id string, ttl int, from string) int {
	if g.paused.Load() {
		// The ops plane refuses pushes with 503 before they get here;
		// this guard covers direct callers during a drain.
		return 0
	}
	now := time.Now()
	g.mu.Lock()
	if id != "" {
		if exp, dup := g.seen[id]; dup && now.Before(exp) {
			g.mu.Unlock()
			g.rumorsDuplicate.Add(1)
			return 0
		}
		g.remember(id, now)
	}
	g.applying++
	g.mu.Unlock()
	g.rumorsReceived.Add(1)

	added, seq := g.node.ApplyDeltaSeq(d)

	g.mu.Lock()
	g.applying--
	if added > 0 && seq == g.pushed+1 {
		// Our own publish was the next in sequence: the relay below
		// carries those points, so the cursor steps over them.
		g.pushed = seq
	}
	// Publishes held back while we applied — a local write — are still
	// to push; the last Receive out says so.
	behind := g.applying == 0 && g.node.Seq() > g.pushed
	g.mu.Unlock()
	if behind {
		g.wake()
	}
	g.pointsReceived.Add(uint64(added))

	if added > 0 && ttl > 1 {
		// A node whose only peer is the sender has nobody to relay to.
		if targets := g.sample(g.cfg.Fanout, from); len(targets) > 0 {
			g.rumorsRelayed.Add(1)
			g.broadcast(context.Background(), d, id, ttl-1, targets)
		}
	}
	return added
}

// sample draws up to k distinct peers from the current partial view,
// excluding exclude, resampling the view when its generation expires.
func (g *Gossiper) sample(k int, exclude string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.view == nil || g.viewAge >= g.cfg.ViewRefresh {
		g.view = append([]string(nil), g.peers...)
		g.rng.Shuffle(len(g.view), func(i, j int) { g.view[i], g.view[j] = g.view[j], g.view[i] })
		g.view = g.view[:g.cfg.ViewSize]
		g.viewAge = 0
	}
	g.viewAge++
	idx := g.rng.Perm(len(g.view))
	out := make([]string, 0, k)
	for _, i := range idx {
		if len(out) == k {
			break
		}
		if g.view[i] == exclude {
			continue
		}
		out = append(out, g.view[i])
	}
	return out
}

// broadcast encodes d once and POSTs it to every target concurrently,
// waiting for all of them: push latency is bounded by the client timeout,
// not summed across targets. The body is not compressed — it is mostly
// raw float64s, and gzip cost more than the hop it shortened.
func (g *Gossiper) broadcast(ctx context.Context, d *synopsis.Delta, id string, ttl int, targets []string) {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		g.pushesFailed.Add(uint64(len(targets)))
		return
	}
	body := buf.Bytes()
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t string) {
			defer wg.Done()
			if err := g.push(ctx, t, body, id, ttl); err != nil {
				g.pushesFailed.Add(1)
				return
			}
			g.pointsPushed.Add(uint64(len(d.Points)))
		}(t)
	}
	wg.Wait()
}

// push POSTs one encoded delta to one peer.
func (g *Gossiper) push(ctx context.Context, target string, body []byte, id string, ttl int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/kb/push", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-KB-Rumor", id)
	req.Header.Set("X-KB-TTL", strconv.Itoa(ttl))
	if g.cfg.Self != "" {
		req.Header.Set("X-KB-From", g.cfg.Self)
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /kb/push: %s", resp.Status)
	}
	return nil
}
