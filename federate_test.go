package selfheal_test

// Federation e2e tests: in-process daemons exchanging knowledge-base
// deltas over real HTTP (httptest servers and ServeOps listeners) must
// converge — after syncing quiesces, every node ranks fixes byte-for-byte
// identically to a single synopsis.Merge of all nodes' final snapshots.
// That is the "provably convergent" contract of the knowledge plane: the
// network path (capture → wire → remap → dedup → apply) adds nothing and
// loses nothing relative to the offline merge the PR 4 toolchain does
// with files.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// fedNode is one in-process daemon: a fleet learning into a shared KB,
// exposed to peers through an httptest ops plane.
type fedNode struct {
	kb    *selfheal.SharedSynopsis
	fleet *selfheal.Fleet
	node  *kbsync.Node
	srv   *httptest.Server
	sync  *kbsync.Syncer // nil until wired to peers
}

// newFedNode builds a node healing the given target kinds.
func newFedNode(t *testing.T, seed int64, kinds ...selfheal.TargetKind) *fedNode {
	t.Helper()
	kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleet, err := selfheal.NewFleet(context.Background(), len(kinds),
		selfheal.WithSeed(seed),
		selfheal.WithTargets(kinds...),
		selfheal.WithSynopsis(kb))
	if err != nil {
		t.Fatal(err)
	}
	node := kbsync.NewNode(kb, nil)
	api, err := httpapi.NewServer(httpapi.Config{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &fedNode{kb: kb, fleet: fleet, node: node, srv: srv}
}

// pullFrom wires the node to poll the given peers (manual SyncOnce).
func (n *fedNode) pullFrom(t *testing.T, peers ...*fedNode) {
	t.Helper()
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.srv.URL
	}
	s, err := kbsync.NewSyncer(n.node, kbsync.Config{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	n.sync = s
}

// campaign heals episodes random faults from the node's own catalogs.
func (n *fedNode) campaign(t *testing.T, episodes int) {
	t.Helper()
	if _, err := n.fleet.RunCampaign(context.Background(), selfheal.Campaign{Episodes: episodes}); err != nil {
		t.Error(err)
	}
}

// quiesce runs sync rounds over all nodes until a full round moves no
// points, then returns how many rounds it took.
func quiesce(t *testing.T, nodes ...*fedNode) int {
	t.Helper()
	for round := 1; ; round++ {
		if round > 100 {
			t.Fatal("federation failed to quiesce in 100 rounds")
		}
		moved := 0
		for _, n := range nodes {
			if n.sync == nil {
				continue
			}
			added, err := n.sync.SyncOnce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			moved += added
		}
		if moved == 0 {
			return round
		}
	}
}

// snapshot captures a node's knowledge base in the process space.
func (n *fedNode) snapshot(t *testing.T) *synopsis.Delta {
	t.Helper()
	snap, err := synopsis.Capture(n.kb, synopsis.SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// assertRanksMatchMerge is the convergence oracle: every node's RankK
// over the probe set must equal ranking against one big Merge of all
// the nodes' snapshots, byte for byte.
func assertRanksMatchMerge(t *testing.T, nodes ...*fedNode) {
	t.Helper()
	snaps := make([]*synopsis.Delta, len(nodes))
	for i, n := range nodes {
		snaps[i] = n.snapshot(t)
	}
	merged, err := synopsis.Merge(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Points) == 0 {
		t.Fatal("nothing was learned; the convergence check is vacuous")
	}
	oracle := selfheal.NewNNSynopsis()
	if err := merged.Replay(oracle, nil); err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 0, len(merged.Points))
	for _, p := range merged.Points {
		probes = append(probes, p.X)
	}
	for pi, x := range probes {
		want := oracle.RankK(x, -1)
		for ni, n := range nodes {
			if got := n.kb.RankK(x, -1); !reflect.DeepEqual(got, want) {
				t.Fatalf("probe %d: node %d ranks differently from Merge:\n got %+v\nwant %+v",
					pi, ni, got, want)
			}
		}
	}
}

// TestFederationTwoNodesDisjointKindsConverge: an auction node and a
// replicated node — fully disjoint target kinds, so every pulled point
// is foreign experience — pull from each other until quiescent.
func TestFederationTwoNodesDisjointKindsConverge(t *testing.T) {
	a := newFedNode(t, 21, selfheal.TargetAuction)
	b := newFedNode(t, 22, selfheal.TargetReplicated)
	a.pullFrom(t, b)
	b.pullFrom(t, a)

	a.campaign(t, 6)
	b.campaign(t, 6)
	quiesce(t, a, b)

	if a.kb.TrainingSize() == 0 || b.kb.TrainingSize() == 0 {
		t.Fatal("campaigns learned nothing")
	}
	if a.node.Seq() == 0 || b.node.Seq() == 0 {
		t.Fatal("publish sequences never advanced")
	}
	assertRanksMatchMerge(t, a, b)
}

// TestFederationDeltaIdempotence: re-delivering an already-applied delta
// over the wire (a retried poll, a reset cursor) changes nothing.
func TestFederationDeltaIdempotence(t *testing.T) {
	a := newFedNode(t, 31, selfheal.TargetAuction)
	b := newFedNode(t, 32, selfheal.TargetReplicated)
	b.pullFrom(t, a)
	a.campaign(t, 4)

	if added, err := b.sync.SyncOnce(context.Background()); err != nil || added == 0 {
		t.Fatalf("first pull: added=%d err=%v", added, err)
	}
	size := b.kb.TrainingSize()
	seq := b.kb.Seq()
	probe := b.snapshot(t).Points[0].X
	want := b.kb.RankK(probe, -1)

	// Force a full re-delivery by applying the peer's since-0 delta by
	// hand — the worst-case duplicate a cursor reset produces.
	resp, err := http.Get(a.srv.URL + "/kb/delta?since=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	d, err := synopsis.DecodeDelta(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.node.ApplyDelta(d); n != 0 {
		t.Fatalf("replayed delta added %d points", n)
	}
	if b.kb.TrainingSize() != size || b.kb.Seq() != seq {
		t.Fatalf("replayed delta changed the KB: size %d→%d seq %d→%d",
			size, b.kb.TrainingSize(), seq, b.kb.Seq())
	}
	if got := b.kb.RankK(probe, -1); !reflect.DeepEqual(got, want) {
		t.Fatal("replayed delta changed ranking")
	}
}

// TestFederationThreeNodeChainConvergesUnderConcurrentLearning is the
// acceptance check: three heterogeneous nodes in a chain topology
// (A ↔ B ↔ C — A and C never talk), campaigns and sync racing
// concurrently, must still end — after quiescence — with every node
// ranking the fixed probe set exactly as Merge(snapA, snapB, snapC).
func TestFederationThreeNodeChainConvergesUnderConcurrentLearning(t *testing.T) {
	a := newFedNode(t, 41, selfheal.TargetAuction)
	b := newFedNode(t, 42, selfheal.TargetAuction, selfheal.TargetReplicated)
	c := newFedNode(t, 43, selfheal.TargetReplicated)
	a.pullFrom(t, b)
	b.pullFrom(t, a, c)
	c.pullFrom(t, b)
	nodes := []*fedNode{a, b, c}

	// Learning and syncing race: each node's campaign runs in its own
	// goroutine while another goroutine keeps pulling sync rounds.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *fedNode) {
			defer wg.Done()
			n.campaign(t, 6)
		}(n)
	}
	var syncwg sync.WaitGroup
	syncwg.Add(1)
	go func() {
		defer syncwg.Done()
		for ctx.Err() == nil {
			for _, n := range nodes {
				_, _ = n.sync.SyncOnce(context.Background())
			}
		}
	}()
	wg.Wait()
	cancel()
	syncwg.Wait()

	rounds := quiesce(t, nodes...)
	t.Logf("quiesced in %d rounds; sizes: a=%d b=%d c=%d",
		rounds, a.kb.TrainingSize(), b.kb.TrainingSize(), c.kb.TrainingSize())
	assertRanksMatchMerge(t, a, b, c)
}

// TestServeOpsEndToEnd exercises the facade path proper: a NodeSpec's
// Serve binds a real listener, another node's Peers pulls from it,
// KnowledgeSeq reports the version, and /kb/snapshot serves the same
// knowledge base SaveKnowledgeBase writes.
func TestServeOpsEndToEnd(t *testing.T) {
	ctx := context.Background()
	kbA := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleetA, err := selfheal.NewFleet(ctx, 1,
		selfheal.WithSeed(51),
		selfheal.WithTargets(selfheal.TargetAuction),
		selfheal.WithSynopsis(kbA))
	if err != nil {
		t.Fatal(err)
	}
	opsA, err := fleetA.ServeOps(ctx, selfheal.NodeSpec{Serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer opsA.Close(ctx)
	if opsA.URL() == "" {
		t.Fatal("no listener address")
	}
	if _, err := fleetA.RunCampaign(ctx, selfheal.Campaign{Episodes: 5}); err != nil {
		t.Fatal(err)
	}
	if fleetA.KnowledgeSeq() == 0 || fleetA.KnowledgeSeq() != kbA.Seq() {
		t.Fatalf("KnowledgeSeq %d, KB seq %d", fleetA.KnowledgeSeq(), kbA.Seq())
	}

	// A pull-only node (no listener) drains A through the facade.
	kbB := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleetB, err := selfheal.NewFleet(ctx, 1,
		selfheal.WithSeed(52),
		selfheal.WithTargets(selfheal.TargetReplicated),
		selfheal.WithSynopsis(kbB))
	if err != nil {
		t.Fatal(err)
	}
	opsB, err := fleetB.ServeOps(ctx, selfheal.NodeSpec{Peers: []string{opsA.URL()}})
	if err != nil {
		t.Fatal(err)
	}
	defer opsB.Close(ctx)
	if opsB.Addr() != "" {
		t.Fatal("pull-only node bound a listener")
	}
	// SyncNow's count is only its own share — the background long-poll
	// pulls the same points — so the contract is what B holds afterwards.
	if _, err := opsB.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	capture := func(kb *selfheal.SharedSynopsis) map[string]int {
		snap, err := synopsis.Capture(kb, synopsis.SaveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return snap.Keys(nil)
	}
	had, has := capture(kbA), capture(kbB)
	if len(had) == 0 {
		t.Fatal("A learned nothing; the check is vacuous")
	}
	for k := range had {
		if _, ok := has[k]; !ok {
			t.Fatalf("after SyncNow B holds %d of A's %d canonical points", len(has), len(had))
		}
	}
	st := opsB.Peers()
	if len(st) != 1 || st[0].Seq != fleetA.KnowledgeSeq() || st[0].Failures != 0 {
		t.Fatalf("peer status %+v, want caught up to seq %d", st, fleetA.KnowledgeSeq())
	}

	// The served snapshot is the same knowledge base SaveKnowledgeBase
	// writes: identical canonical experience, same sequence.
	resp, err := http.Get(opsA.URL() + "/kb/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /kb/snapshot: %s", resp.Status)
	}
	if got, want := resp.Header.Get("X-KB-Seq"), fmt.Sprint(fleetA.KnowledgeSeq()); got != want {
		t.Fatalf("X-KB-Seq %q, want %q", got, want)
	}
	fetched, err := synopsis.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := selfheal.SaveKnowledgeBase(&buf, kbA); err != nil {
		t.Fatal(err)
	}
	saved, err := selfheal.DecodeKnowledgeBase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fetched.Keys(nil), saved.Keys(nil)) {
		t.Fatal("served snapshot and SaveKnowledgeBase hold different experience")
	}
	if fetched.Seq != saved.Seq {
		t.Fatalf("served seq %d != saved seq %d", fetched.Seq, saved.Seq)
	}
}

// TestFederationOptionValidation pins the NodeSpec contract, all of it
// raised at ServeOps: federation needs a shared knowledge base, a spec
// with neither Serve nor Peers starts nothing, and no value may be
// negative.
func TestFederationOptionValidation(t *testing.T) {
	ctx := context.Background()
	serve := selfheal.NodeSpec{Serve: "127.0.0.1:0"}
	fl, err := selfheal.NewFleet(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.ServeOps(ctx, serve); err == nil {
		t.Error("ServeOps without a shared knowledge base accepted")
	}
	fl, err = selfheal.NewFleet(ctx, 1, selfheal.WithSynopsis(selfheal.NewNNSynopsis()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.ServeOps(ctx, selfheal.NodeSpec{Peers: []string{"http://localhost:1"}}); err == nil {
		t.Error("Peers over an unshared synopsis accepted")
	}
	fl, err = selfheal.NewFleet(ctx, 1, selfheal.WithSynopsis(selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []selfheal.NodeSpec{
		{},
		{AdminToken: "t", RateLimit: 5},
		{Serve: "127.0.0.1:0", RateLimit: -1},
		{Serve: "127.0.0.1:0", RateLimit: math.NaN()},
		{Serve: "127.0.0.1:0", RateLimit: math.Inf(1)},
	} {
		if ops, err := fl.ServeOps(ctx, bad); err == nil {
			ops.Close(ctx)
			t.Errorf("NodeSpec %+v accepted", bad)
		}
	}
}

// TestServeOpsPullAndCompaction exercises the pull plane and the memory
// bound through the facade only: node B serves and its knowledge base
// compacts, node A pulls from B. A point added on B must arrive at A by
// pull, and B's arrival log must stay under the compaction cap no matter
// how much it learns while A keeps pulling it.
func TestServeOpsPullAndCompaction(t *testing.T) {
	ctx := context.Background()
	const maxPoints = 48
	kbB := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	if err := kbB.EnableCompaction(selfheal.Compaction{MaxPoints: maxPoints, MergeRadius: 0.25}); err != nil {
		t.Fatal(err)
	}
	fleetB, err := selfheal.NewFleet(ctx, 1,
		selfheal.WithSeed(62),
		selfheal.WithTargets(selfheal.TargetAuction),
		selfheal.WithSynopsis(kbB))
	if err != nil {
		t.Fatal(err)
	}
	opsB, err := fleetB.ServeOps(ctx, selfheal.NodeSpec{Serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer opsB.Close(ctx)

	kbA := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleetA, err := selfheal.NewFleet(ctx, 1,
		selfheal.WithSeed(61),
		selfheal.WithTargets(selfheal.TargetAuction),
		selfheal.WithSynopsis(kbA))
	if err != nil {
		t.Fatal(err)
	}
	opsA, err := fleetA.ServeOps(ctx, selfheal.NodeSpec{Peers: []string{opsB.URL()}})
	if err != nil {
		t.Fatal(err)
	}
	defer opsA.Close(ctx)

	// One publish on B becomes Suggest-able on A by pull alone.
	kbB.Add(selfheal.Point{
		X:       []float64{4, 1},
		Action:  synopsis.Action{Fix: catalog.FixRebootAppTier, Target: "app"},
		Success: true,
	})
	deadline := time.Now().Add(5 * time.Second)
	for kbA.LogSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("published point never reached the pulling peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if kbA.TrainingSize() == 0 {
		t.Fatal("pulled point arrived but trained nothing")
	}

	// The arrival log stays bounded under sustained learning, and the
	// compacted KB still answers.
	for i := 0; i < maxPoints*6; i++ {
		kbB.Add(selfheal.Point{
			X:       []float64{float64(i * 3), float64(i*3 + 1)},
			Action:  synopsis.Action{Fix: catalog.FixRebootAppTier, Target: "app"},
			Success: i%4 != 3,
		})
		if got := kbB.LogSize(); got > maxPoints {
			t.Fatalf("log grew to %d points, cap is %d", got, maxPoints)
		}
	}
	if kbB.TrainingSize() == 0 {
		t.Fatal("compaction left the KB unable to train")
	}
	if _, ok := kbB.Suggest([]float64{3, 4}, nil); !ok {
		t.Fatal("compacted KB cannot suggest")
	}
}
