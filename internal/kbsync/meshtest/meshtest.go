// Package meshtest is an in-process federation mesh: N selfheal nodes,
// each a real knowledge base behind a real HTTP ops plane, wired
// together with the one mechanism a daemon runs — a Syncer keeping one
// long-poll parked on each of its pull peers — over loopback httptest
// servers. Tests and benchmarks use it
// to measure what the paper's federated-healing story actually promises
// — that a fix learned on one node becomes Suggest-able fleet-wide in
// sub-second time — and to prove the convergence invariant end to end:
// every node's converged ranking is byte-identical to replaying the
// synopsis.Merge of everyone's snapshot.
//
// The mesh models failure at the network layer so the nodes under test
// stay honest production code: a down node answers 503 to everything, a
// partition rejects cross-group requests (each node's HTTP client stamps
// its group on the wire), and DropRate loses that fraction of /kb/delta
// responses — the pulls that follow must repair whatever a lost one
// carried.
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

// Topology names the shape of the pull graph: whom each node keeps a
// long-poll parked on.
type Topology int

const (
	// Full has every node pull every other node.
	Full Topology = iota
	// Random has each node pull its ring successor plus Degree-1 random
	// peers. The successor edges form a covering cycle, so every node's
	// knowledge has a path to every other node; the random edges cut the
	// hop count.
	Random
	// Ring has each node pull only its successor: knowledge must relay
	// across the whole diameter, the harshest honest topology.
	Ring
	// Partitioned makes each half its own pull ring, plus Degree-1 peers
	// across the cut, which Partition(true) blocks.
	Partitioned
)

// Options parameterizes a Mesh.
type Options struct {
	// Nodes is the mesh size. Required.
	Nodes int
	// Topology shapes the pull graph (default Full).
	Topology Topology
	// Degree is how many peers each node pulls under Random and
	// Partitioned (default 5).
	Degree int
	// DropRate loses this fraction of /kb/delta responses: the request
	// is served, parking included, and the answer replaced by a 503.
	DropRate float64
	// Compaction, when set, bounds every node's KB memory.
	Compaction *synopsis.Compaction
	// Seed makes topology wiring, poll jitter, and drop decisions
	// deterministic (default 1).
	Seed int64
}

// Node is one mesh participant.
type Node struct {
	Node   *kbsync.Node
	KB     *synopsis.Shared
	Syncer *kbsync.Syncer
	URL    string
	Group  int // partition half: 0 or 1

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

// New assembles (but does not start) a mesh. Call Start to run the pull
// loops and Close when done.
func New(opts Options) (*Mesh, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("meshtest: need at least 2 nodes, got %d", opts.Nodes)
	}
	if opts.Degree <= 0 {
		opts.Degree = 5
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
		// What a harness must inject — its transport, seeds and a
		// test-scale backoff cap — is all that differs from how
		// selfheal.Fleet.ServeOps builds the same loop.
		sy, err := kbsync.NewSyncer(n.Node, kbsync.Config{
			Peers:      m.pullPeers(i, wiring),
			MaxBackoff: 2 * time.Second,
			Client: &http.Client{
				Timeout:   10 * time.Second,
				Transport: groupTransport{group: strconv.Itoa(n.Group), base: http.DefaultTransport},
			},
			Seed: opts.Seed + int64(i)*104729,
		})
		if err != nil {
			return nil, err
		}
		n.Syncer = sy
		api, err := httpapi.NewServer(httpapi.Config{Node: n.Node, Syncer: sy})
		if err != nil {
			return nil, err
		}
		var h http.Handler = api
		apis[i].Store(&h)
	}
	return m, nil
}

// pullPeers wires node i's pull peers per the topology.
func (m *Mesh) pullPeers(i int, rng *rand.Rand) []string {
	n := m.Opts.Nodes
	switch m.Opts.Topology {
	case Ring:
		return []string{m.Nodes[(i+1)%n].URL}
	case Random:
		return m.withRandom(m.Nodes[(i+1)%n], rng, func(j int) bool { return j != i })
	case Partitioned:
		// The successor within i's own half, then peers across the cut.
		var half []*Node
		k := 0
		for j, other := range m.Nodes {
			if j == i {
				k = len(half)
			}
			if other.Group == m.Nodes[i].Group {
				half = append(half, other)
			}
		}
		next := half[(k+1)%len(half)]
		return m.withRandom(next, rng, func(j int) bool { return m.Nodes[j].Group != m.Nodes[i].Group })
	default: // Full
		var out []string
		for j, other := range m.Nodes {
			if j != i {
				out = append(out, other.URL)
			}
		}
		return out
	}
}

// withRandom returns first's URL plus Degree-1 random nodes that eligible
// admits, first excluded.
func (m *Mesh) withRandom(first *Node, rng *rand.Rand, eligible func(j int) bool) []string {
	out := []string{first.URL}
	for _, j := range rng.Perm(m.Opts.Nodes) {
		if len(out) == m.Opts.Degree {
			break
		}
		if eligible(j) && m.Nodes[j] != first {
			out = append(out, m.Nodes[j].URL)
		}
	}
	return out
}

// serve is the per-node network layer: down nodes, the partition, and
// dropped responses all manifest here as 503s.
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
	if m.Opts.DropRate > 0 && r.URL.Path == "/kb/delta" {
		m.dropMu.Lock()
		drop := m.dropRng.Float64() < m.Opts.DropRate
		m.dropMu.Unlock()
		if drop {
			api.ServeHTTP(httptest.NewRecorder(), r)
			m.dropped.Add(1)
			http.Error(w, "response dropped", http.StatusServiceUnavailable)
			return
		}
	}
	api.ServeHTTP(w, r)
}

// Start launches every node's pull loop.
func (m *Mesh) Start() {
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for _, n := range m.Nodes {
		m.startNode(n)
	}
}

// startNode runs one node's pull loop under its own cancel, so churn can
// stop a single node the way a crash would.
func (m *Mesh) startNode(n *Node) {
	ctx, cancel := context.WithCancel(m.ctx)
	n.runCancel = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		n.Syncer.Run(ctx)
	}()
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

// SetDown crashes node i — its server answers 503 and its pull loop
// stops — or revives it with a fresh loop.
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

// Dropped reports how many /kb/delta responses the network layer lost.
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
// every node's delta since zero — federation converged to exactly the
// knowledge a centralized merge would hold.
func (m *Mesh) RankingsIdentical(queries [][]float64, k int) error {
	snaps := make([]*synopsis.Delta, len(m.Nodes))
	for i, n := range m.Nodes {
		snaps[i] = n.Node.Delta(0)
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
