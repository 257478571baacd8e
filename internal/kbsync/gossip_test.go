package kbsync_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// gossipNode is one in-process mesh participant: a federation node, its
// gossiper, and an httptest server exposing the push/pull endpoints.
type gossipNode struct {
	node *kbsync.Node
	kb   *synopsis.Shared
	gsp  *kbsync.Gossiper
	srv  *httptest.Server
}

// newGossipMesh builds n nodes whose gossipers each know every other
// node's URL and their own, with the given fanout and TTL.
func newGossipMesh(t *testing.T, n, fanout, ttl int) []*gossipNode {
	t.Helper()
	return buildGossipMesh(t, n, fanout, ttl, true)
}

// buildGossipMesh is newGossipMesh with the choice of whether gossipers
// know their own URL; the facade's do not (a daemon bound to ":8701"
// cannot name itself), so their pushes carry no X-KB-From. The
// chicken-and-egg between server URLs and peer lists is broken with an
// indirection: each server delegates to a handler installed after all
// URLs exist.
func buildGossipMesh(t *testing.T, n, fanout, ttl int, knowSelf bool) []*gossipNode {
	t.Helper()
	nodes := make([]*gossipNode, n)
	handlers := make([]atomic.Pointer[httpapi.Server], n)
	for i := range nodes {
		i := i
		node, kb := newNode("m0", "m1")
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].Load().ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		nodes[i] = &gossipNode{node: node, kb: kb, srv: srv}
	}
	for i, gn := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.srv.URL)
			}
		}
		cfg := kbsync.GossipConfig{Peers: peers, Fanout: fanout, TTL: ttl, Seed: int64(i + 1)}
		if knowSelf {
			cfg.Self = gn.srv.URL
		}
		gsp, err := kbsync.NewGossiper(gn.node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		api, err := httpapi.NewServer(httpapi.Config{Node: gn.node, Gossiper: gsp})
		if err != nil {
			t.Fatal(err)
		}
		handlers[i].Store(api)
		gn.gsp = gsp
	}
	return nodes
}

// TestGossipPushOnPublishReachesPeers pins the origin path: a point
// published on one node and flushed with PushNow lands on every direct
// push target's knowledge base.
func TestGossipPushOnPublishReachesPeers(t *testing.T) {
	nodes := newGossipMesh(t, 3, 2, 1) // fanout covers both peers, no relay needed
	nodes[0].kb.Add(pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	if sent := nodes[0].gsp.PushNow(context.Background()); sent != 1 {
		t.Fatalf("PushNow sent %d points, want 1", sent)
	}
	for i := 1; i < 3; i++ {
		if got := nodes[i].kb.TrainingSize(); got != 1 {
			t.Fatalf("node %d has %d points after push, want 1", i, got)
		}
	}
	if st := nodes[0].gsp.Stats(); st.RumorsOrigin != 1 || st.PointsPushed != 2 || st.PushesFailed != 0 {
		t.Fatalf("origin stats = %+v", st)
	}
	// Nothing new: the next PushNow is a no-op that still advances.
	if sent := nodes[0].gsp.PushNow(context.Background()); sent != 0 {
		t.Fatalf("idle PushNow sent %d points", sent)
	}
}

// TestGossipRelayCrossesHops pins rumor relay: with fanout 1 the origin
// reaches one peer directly, and the rumor's remaining TTL carries it to
// the rest of a 4-node mesh hop by hop.
func TestGossipRelayCrossesHops(t *testing.T) {
	nodes := newGossipMesh(t, 4, 1, 8)
	nodes[0].kb.Add(pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	nodes[0].gsp.PushNow(context.Background())

	// Relays run synchronously inside the push's HTTP handler, so by the
	// time PushNow returns the epidemic either covered the mesh or died.
	// With fanout 1 a relay can still pick an already-infected peer and
	// stop early; keep offering every node a push until it has.
	deadline := time.Now().Add(5 * time.Second)
	for !meshConverged(nodes, 1) {
		if time.Now().After(deadline) {
			sizes := make([]int, len(nodes))
			for i, gn := range nodes {
				sizes[i] = gn.kb.TrainingSize()
			}
			t.Fatalf("mesh never converged: sizes %v", sizes)
		}
		for _, gn := range nodes {
			gn.gsp.PushNow(context.Background())
		}
	}
	relayed := uint64(0)
	for _, gn := range nodes {
		relayed += gn.gsp.Stats().RumorsRelayed
	}
	if relayed == 0 {
		t.Fatal("mesh converged without a single relay; fanout-1 push cannot reach 3 peers directly")
	}
}

// TestGossipTTLStopsRelay pins the hop budget: TTL 1 means "apply, do
// not relay", so with fanout 1 exactly one peer learns the point.
func TestGossipTTLStopsRelay(t *testing.T) {
	nodes := newGossipMesh(t, 3, 1, 1)
	nodes[0].kb.Add(pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	nodes[0].gsp.PushNow(context.Background())
	infected := 0
	for _, gn := range nodes[1:] {
		if gn.kb.TrainingSize() == 1 {
			infected++
		}
		if st := gn.gsp.Stats(); st.RumorsRelayed != 0 {
			t.Fatalf("TTL-1 rumor was relayed: %+v", st)
		}
	}
	if infected != 1 {
		t.Fatalf("%d peers infected with fanout 1, want exactly 1", infected)
	}
}

// TestGossipDuplicateRumorDropped pins the id cache: the same rumor id
// delivered twice is applied once and counted as a duplicate, before
// the delta is even consulted.
func TestGossipDuplicateRumorDropped(t *testing.T) {
	nodes := newGossipMesh(t, 2, 1, 4)
	d := &synopsis.Delta{
		Seq:      1,
		Symptoms: []string{"m0", "m1"},
		Points:   []synopsis.Point{pt([]float64{1, 2}, catalog.FixUpdateStats, "items")},
	}
	if added := nodes[0].gsp.Receive(d, "peerX:1", 4, ""); added != 1 {
		t.Fatalf("first receive added %d, want 1", added)
	}
	if added := nodes[0].gsp.Receive(d, "peerX:1", 4, ""); added != 0 {
		t.Fatalf("duplicate receive added %d, want 0", added)
	}
	st := nodes[0].gsp.Stats()
	if st.RumorsReceived != 1 || st.RumorsDuplicate != 1 {
		t.Fatalf("stats after duplicate = %+v", st)
	}
}

// TestGossipReceiveSuppressesEcho pins the cursor bookkeeping that keeps
// the mesh quiet: applying a foreign delta republishes its points
// locally, but that publish must advance the push cursor (the relay
// already carries the points) rather than re-originate them.
func TestGossipReceiveSuppressesEcho(t *testing.T) {
	nodes := newGossipMesh(t, 2, 1, 4)
	d := &synopsis.Delta{
		Seq:      1,
		Symptoms: []string{"m0", "m1"},
		Points:   []synopsis.Point{pt([]float64{1, 2}, catalog.FixUpdateStats, "items")},
	}
	// TTL 1 so the receive does not relay; the only way the point could
	// leave again is a (wrong) re-origination by PushNow.
	nodes[0].gsp.Receive(d, "peerX:1", 1, "")
	if sent := nodes[0].gsp.PushNow(context.Background()); sent != 0 {
		t.Fatalf("PushNow re-originated %d points applied by Receive", sent)
	}
	if st := nodes[0].gsp.Stats(); st.RumorsOrigin != 0 {
		t.Fatalf("receive-applied points were re-originated: %+v", st)
	}
	// A genuinely local write afterwards still pushes.
	nodes[0].kb.Add(pt([]float64{3, 4}, catalog.FixMicrorebootEJB, "items"))
	if sent := nodes[0].gsp.PushNow(context.Background()); sent != 1 {
		t.Fatalf("local write after receive pushed %d points, want 1", sent)
	}
}

// TestGossipOwnRumorComingBackIsDuplicate: in a two-node fleet whose
// gossipers cannot name themselves, B relays every rumor A originates
// straight back to A. A must recognize its own id — one duplicate,
// nothing received, no points re-examined.
func TestGossipOwnRumorComingBackIsDuplicate(t *testing.T) {
	nodes := buildGossipMesh(t, 2, 1, 4, false)
	a, b := nodes[0], nodes[1]
	a.kb.Add(pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	// Pushes and relays are synchronous: when PushNow returns, B has
	// applied the rumor and its relay back to A has been answered.
	if sent := a.gsp.PushNow(context.Background()); sent != 1 {
		t.Fatalf("PushNow sent %d points, want 1", sent)
	}
	if st := b.gsp.Stats(); st.RumorsReceived != 1 || st.RumorsRelayed != 1 || st.PushesFailed != 0 {
		t.Fatalf("relay stats on B = %+v, want the rumor received and relayed back", st)
	}
	if st := a.gsp.Stats(); st.RumorsDuplicate != 1 || st.RumorsReceived != 0 || st.PointsReceived != 0 {
		t.Fatalf("origin stats on A = %+v, want its own rumor counted once as a duplicate", st)
	}
}

// TestGossipLocalWriteDuringReceiveIsPushed: a local learner publishes
// while a Receive is applying, the one moment the publish hook holds its
// wakeup back. The Receive must hand that wakeup to the push loop on its
// way out — no timer is left to find the write later.
func TestGossipLocalWriteDuringReceiveIsPushed(t *testing.T) {
	nodes := newGossipMesh(t, 2, 1, 4)
	a, b := nodes[0], nodes[1]
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.gsp.Run(ctx)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// Publish hooks run on the writer's goroutine after the knowledge
	// base's lock is released, so the first publish — the apply below —
	// is still inside Receive when this local write lands.
	local := pt([]float64{3, 4}, catalog.FixMicrorebootEJB, "items")
	var wrote atomic.Bool
	a.kb.OnPublish(func(uint64) {
		if !wrote.CompareAndSwap(false, true) {
			return // the local write's own publish
		}
		landed := make(chan struct{})
		go func() {
			a.kb.Add(local)
			close(landed)
		}()
		<-landed
	})
	d := &synopsis.Delta{
		Seq:      1,
		Symptoms: []string{"m0", "m1"},
		Points:   []synopsis.Point{pt([]float64{1, 2}, catalog.FixUpdateStats, "items")},
	}
	// TTL 1: the received rumor itself is not relayed, so whatever
	// reaches B is what A's push loop originated.
	if added := a.gsp.Receive(d, "peerX:1", 1, ""); added != 1 {
		t.Fatalf("receive added %d, want 1", added)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.kb.TrainingSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the local write made during Receive was never pushed")
		}
		time.Sleep(time.Millisecond)
	}
	if pts, _ := b.kb.Export(); len(pts) != 1 || pts[0].Action != local.Action {
		t.Fatalf("B holds %+v, want only the local write (the applied rumor is not A's to re-originate)", pts)
	}
}

// TestGossipRunPushesOnPublish pins the wiring end to end: with Run
// started, a bare kb.Add on one node (no explicit PushNow) reaches the
// peer via the publish hook's wakeup.
func TestGossipRunPushesOnPublish(t *testing.T) {
	nodes := newGossipMesh(t, 2, 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		nodes[0].gsp.Run(ctx)
		close(done)
	}()

	nodes[0].kb.Add(pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].kb.TrainingSize() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("publish never reached the peer through Run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
}

// meshConverged reports whether every node's KB holds want points.
func meshConverged(nodes []*gossipNode, want int) bool {
	for _, gn := range nodes {
		if gn.kb.TrainingSize() != want {
			return false
		}
	}
	return true
}
