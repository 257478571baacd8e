// Package meshtest is an in-process federation mesh: N selfheal nodes,
// each a real knowledge base behind a real HTTP ops plane, wired
// together with the two mechanisms a daemon runs — the gossip push plane
// and (when PullPeers > 0) the long-poll pull plane — over loopback
// httptest servers. Tests and benchmarks use it
// to measure what the paper's federated-healing story actually promises
// — that a fix learned on one node becomes Suggest-able fleet-wide in
// sub-second time — and to prove the convergence invariant end to end:
// every node's converged ranking is byte-identical to replaying the
// synopsis.Merge of everyone's snapshot.
//
// The mesh models failure at the network layer so the nodes under test
// stay honest production code: a down node answers 503 to everything, a
// partition rejects cross-group requests (each node's HTTP client stamps
// its group on the wire), and DropRate rejects that fraction of gossip
// pushes — the pull plane must repair whatever the epidemic loses.
package meshtest

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/detect"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// Topology names the shape of the gossip graph.
type Topology int

const (
	// Full gives every gossiper every other node as a potential peer
	// (the partial view still bounds who it actually talks to).
	Full Topology = iota
	// Random gives each node Degree random out-neighbors.
	Random
	// Ring gives each node only its successor; propagation must cross
	// the whole diameter on relay TTL, the harshest honest topology.
	Ring
	// Partitioned splits the mesh into two halves whose gossip graphs
	// never cross; while Partition(true) is also set, even pull-plane
	// requests are rejected across the cut.
	Partitioned
)

// Options parameterizes a Mesh.
type Options struct {
	// Nodes is the mesh size. Required.
	Nodes int
	// Topology shapes the gossip graph (default Full).
	Topology Topology
	// Degree is Random's out-degree (default 5).
	Degree int
	// Fanout and TTL are passed to every gossiper (gossip defaults
	// apply when zero, except Ring which defaults TTL to Nodes).
	Fanout, TTL int
	// DropRate rejects this fraction of /kb/push deliveries with a 503,
	// modeling lossy gossip transport.
	DropRate float64
	// PullPeers, when positive, gives every node a pull-plane Syncer over
	// its ring successor plus PullPeers-1 random peers. Zero disables the
	// pull plane.
	PullPeers int
	// Compaction, when set, bounds every node's KB memory.
	Compaction *synopsis.Compaction
	// Seed makes topology wiring, gossip sampling, and drop decisions
	// deterministic (default 1).
	Seed int64
}

// Node is one mesh participant.
type Node struct {
	Node     *kbsync.Node
	KB       *synopsis.Shared
	Gossiper *kbsync.Gossiper
	Syncer   *kbsync.Syncer
	URL      string
	Group    int // partition half: 0 or 1

	down      atomic.Bool
	runCancel context.CancelFunc
}

// Mesh is a running in-process federation fleet.
type Mesh struct {
	Opts   Options
	Schema []string
	Nodes  []*Node

	partitioned atomic.Bool
	dropped     atomic.Uint64

	dropMu  sync.Mutex
	dropRng *rand.Rand

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	srvs   []*httptest.Server
}

// meshSchema is the symptom schema every node shares.
var meshSchema = []string{"svc.latency", "svc.errors", "db.cpu", "app.heap"}

// groupTransport stamps the sending node's partition group onto every
// outbound request so servers can enforce a partition.
type groupTransport struct {
	group string
	base  http.RoundTripper
}

func (t groupTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set("X-Mesh-Group", t.group)
	return t.base.RoundTrip(r)
}

// New assembles (but does not start) a mesh. Call Start to run the
// gossip/pull loops and Close when done.
func New(opts Options) (*Mesh, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("meshtest: need at least 2 nodes, got %d", opts.Nodes)
	}
	if opts.Degree <= 0 {
		opts.Degree = 5
	}
	if opts.TTL <= 0 && opts.Topology == Ring {
		opts.TTL = opts.Nodes
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	m := &Mesh{
		Opts:    opts,
		Schema:  meshSchema,
		dropRng: rand.New(rand.NewSource(opts.Seed)),
	}
	wiring := rand.New(rand.NewSource(opts.Seed + 1))

	// Servers first: peer lists need everyone's URL, so each server
	// serves through an indirection filled in once wiring is done.
	apis := make([]atomic.Pointer[http.Handler], opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		space := detect.NewSymptomSpace()
		space.Indices(meshSchema)
		kb := synopsis.NewShared(synopsis.NewNearestNeighbor())
		if opts.Compaction != nil {
			if err := kb.EnableCompaction(*opts.Compaction); err != nil {
				return nil, err
			}
		}
		n := &Node{
			Node:  kbsync.NewNode(kb, space),
			KB:    kb,
			Group: i * 2 / opts.Nodes,
		}
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := apis[i].Load()
			if h == nil { // wiring still in progress
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			m.serve(i, *h, w, r)
		}))
		n.URL = srv.URL
		m.Nodes = append(m.Nodes, n)
		m.srvs = append(m.srvs, srv)
	}

	for i, n := range m.Nodes {
		// What a harness must inject — its transport, seeds, its own URL
		// and a test-scale backoff cap — is all that differs from how
		// selfheal.Fleet.ServeOps builds the same two loops.
		client := &http.Client{
			Timeout:   10 * time.Second,
			Transport: groupTransport{group: strconv.Itoa(n.Group), base: http.DefaultTransport},
		}
		gsp, err := kbsync.NewGossiper(n.Node, kbsync.GossipConfig{
			Peers:  m.gossipPeers(i, wiring),
			Self:   n.URL,
			Fanout: opts.Fanout,
			TTL:    opts.TTL,
			Client: client,
			Seed:   opts.Seed + int64(i)*7919,
		})
		if err != nil {
			return nil, err
		}
		n.Gossiper = gsp
		if opts.PullPeers > 0 {
			sy, err := kbsync.NewSyncer(n.Node, kbsync.Config{
				Peers:      m.pullPeers(i, wiring),
				MaxBackoff: 2 * time.Second,
				Client:     client,
				Seed:       opts.Seed + int64(i)*104729,
			})
			if err != nil {
				return nil, err
			}
			n.Syncer = sy
		}
		api, err := httpapi.NewServer(httpapi.Config{Node: n.Node, Gossiper: gsp, Syncer: n.Syncer})
		if err != nil {
			return nil, err
		}
		var h http.Handler = api
		apis[i].Store(&h)
	}
	return m, nil
}

// gossipPeers wires node i's gossip out-neighbors per the topology.
func (m *Mesh) gossipPeers(i int, rng *rand.Rand) []string {
	n := m.Opts.Nodes
	var out []string
	switch m.Opts.Topology {
	case Ring:
		out = append(out, m.Nodes[(i+1)%n].URL)
	case Random:
		for _, j := range rng.Perm(n) {
			if j == i {
				continue
			}
			out = append(out, m.Nodes[j].URL)
			if len(out) == m.Opts.Degree {
				break
			}
		}
	case Partitioned:
		for j, other := range m.Nodes {
			if j != i && other.Group == m.Nodes[i].Group {
				out = append(out, other.URL)
			}
		}
	default: // Full
		for j, other := range m.Nodes {
			if j != i {
				out = append(out, other.URL)
			}
		}
	}
	return out
}

// pullPeers wires node i's anti-entropy pull peers: its ring successor
// plus PullPeers-1 random nodes from the whole mesh. The successor edges
// form a covering cycle, so every node's knowledge has a path to every
// other node through pulls alone — without that anchor a node whose
// origin pushes were all dropped could strand a point forever (nobody
// randomly pulls from it). The random edges keep repair latency low and
// give a partitioned gossip graph (blockable, then healable) cross-cut
// pull edges.
func (m *Mesh) pullPeers(i int, rng *rand.Rand) []string {
	n := m.Opts.Nodes
	out := []string{m.Nodes[(i+1)%n].URL}
	for _, j := range rng.Perm(n) {
		if len(out) == m.Opts.PullPeers {
			break
		}
		if j == i || j == (i+1)%n {
			continue
		}
		out = append(out, m.Nodes[j].URL)
	}
	return out
}

// serve is the per-node network layer: down nodes, the partition, and
// push drops all manifest here as 503s, before the real handler runs.
func (m *Mesh) serve(i int, api http.Handler, w http.ResponseWriter, r *http.Request) {
	n := m.Nodes[i]
	if n.down.Load() {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	if m.partitioned.Load() {
		if from := r.Header.Get("X-Mesh-Group"); from != "" && from != strconv.Itoa(n.Group) {
			http.Error(w, "partitioned", http.StatusServiceUnavailable)
			return
		}
	}
	if m.Opts.DropRate > 0 && r.URL.Path == "/kb/push" {
		m.dropMu.Lock()
		drop := m.dropRng.Float64() < m.Opts.DropRate
		m.dropMu.Unlock()
		if drop {
			m.dropped.Add(1)
			http.Error(w, "push dropped", http.StatusServiceUnavailable)
			return
		}
	}
	api.ServeHTTP(w, r)
}

// Start launches every node's gossip (and pull, when configured) loop.
func (m *Mesh) Start() {
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for _, n := range m.Nodes {
		m.startNode(n)
	}
}

// startNode runs one node's loops under its own cancel, so churn can
// stop a single node the way a crash would.
func (m *Mesh) startNode(n *Node) {
	ctx, cancel := context.WithCancel(m.ctx)
	n.runCancel = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		n.Gossiper.Run(ctx)
	}()
	if n.Syncer != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			n.Syncer.Run(ctx)
		}()
	}
}

// Close stops the loops and the servers.
func (m *Mesh) Close() {
	if m.cancel != nil {
		m.cancel()
		m.wg.Wait()
	}
	for _, srv := range m.srvs {
		srv.Close()
	}
}

// Partition blocks (or unblocks) all cross-group requests.
func (m *Mesh) Partition(active bool) { m.partitioned.Store(active) }

// SetDown crashes node i — its server answers 503 and its own gossip
// and pull loops stop — or revives it with fresh loops.
func (m *Mesh) SetDown(i int, down bool) {
	n := m.Nodes[i]
	if down {
		n.down.Store(true)
		if n.runCancel != nil {
			n.runCancel()
			n.runCancel = nil
		}
		return
	}
	n.down.Store(false)
	m.startNode(n)
}

// Dropped reports how many pushes the network layer rejected.
func (m *Mesh) Dropped() uint64 { return m.dropped.Load() }

// Publish adds p to node i's knowledge base — the moment a local healing
// loop would have learned it.
func (m *Mesh) Publish(i int, p synopsis.Point) { m.Nodes[i].KB.Add(p) }

// AwaitConverged polls until every node's arrival log holds want
// canonical points (successes and failures both federate; the log
// counts what TrainingSize — successes only — cannot), returning the
// fleet-wide propagation latency.
func (m *Mesh) AwaitConverged(want int, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		lagging := -1
		sizes := make([]int, len(m.Nodes))
		for i, n := range m.Nodes {
			sizes[i] = n.KB.LogSize()
			if sizes[i] != want && lagging < 0 {
				lagging = i
			}
		}
		if lagging < 0 {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("meshtest: node %d at %d/%d points after %v (fleet: %v)",
				lagging, sizes[lagging], want, timeout, sizes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// RankingsIdentical asserts the convergence invariant over the queries:
// every node's RankK answer is byte-identical to node 0's, and node 0's
// is byte-identical to a fresh learner replaying the synopsis.Merge of
// every node's snapshot — federation converged to exactly the knowledge
// a centralized merge would hold.
func (m *Mesh) RankingsIdentical(queries [][]float64, k int) error {
	snaps := make([]*synopsis.Snapshot, len(m.Nodes))
	for i, n := range m.Nodes {
		d := n.Node.Delta(0)
		snaps[i] = &synopsis.Snapshot{
			Version:  synopsis.FormatV2,
			Synopsis: n.KB.Name(),
			Symptoms: d.Symptoms,
			Points:   d.Points,
		}
	}
	merged, err := synopsis.Merge(snaps...)
	if err != nil {
		return fmt.Errorf("meshtest: merge: %w", err)
	}
	space := detect.NewSymptomSpace()
	space.Indices(m.Schema)
	central := synopsis.NewNearestNeighbor()
	if err := merged.Replay(central, space); err != nil {
		return fmt.Errorf("meshtest: replay: %w", err)
	}
	for _, q := range queries {
		want := m.Nodes[0].KB.RankK(q, k)
		for i, n := range m.Nodes[1:] {
			if got := n.KB.RankK(q, k); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("meshtest: node %d ranking diverged at %v:\n got %+v\nwant %+v", i+1, q, got, want)
			}
		}
		if got := central.RankK(q, k); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("meshtest: merged ranking diverged at %v:\n got %+v\nwant %+v", q, got, want)
		}
	}
	return nil
}

// MaxLogPoints reports the largest per-node KB arrival log — the memory
// bound compaction promises to hold.
func (m *Mesh) MaxLogPoints() int {
	max := 0
	for _, n := range m.Nodes {
		if s := n.KB.LogSize(); s > max {
			max = s
		}
	}
	return max
}
