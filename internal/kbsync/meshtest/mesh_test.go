package meshtest

import (
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/synopsis"
)

// meshPoint builds the i-th of a family of well-separated observations
// (pairwise distance >> any merge radius, so every node converges to the
// exact same canonical set regardless of arrival order). Every fifth
// point is a failure: failures federate too.
func meshPoint(i int) synopsis.Point {
	fixes := []catalog.FixID{
		catalog.FixMicrorebootEJB, catalog.FixKillHungQuery,
		catalog.FixUpdateStats, catalog.FixRebootAppTier,
	}
	x := make([]float64, len(meshSchema))
	for d := range x {
		x[d] = float64(10*i + d)
	}
	return synopsis.Point{
		X:       x,
		Action:  synopsis.Action{Fix: fixes[i%len(fixes)], Target: "items"},
		Success: i%5 != 4,
	}
}

// meshQueries probes near the first n point clusters.
func meshQueries(n int) [][]float64 {
	qs := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, len(meshSchema))
		for d := range x {
			x[d] = float64(10*i+d) + 0.25
		}
		qs = append(qs, x)
	}
	return qs
}

// await is AwaitConverged with the test failing on a miss.
func await(t *testing.T, m *Mesh, want int, timeout time.Duration) time.Duration {
	t.Helper()
	lat, err := m.AwaitConverged(want, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

// TestFiftyNodeMeshSubSecondPropagation is the paper's federation claim
// at fleet scale: a fix learned on one of 50 nodes is Suggest-able on
// all 50 in under a second, and the converged rankings are byte-for-byte
// what a centralized merge of everyone's snapshot would answer. The
// long-poll pull plane rides along exactly as deployed — gossip covers
// the fleet in milliseconds, parked pulls catch any node the epidemic
// missed.
func TestFiftyNodeMeshSubSecondPropagation(t *testing.T) {
	// 50 real HTTP servers pacing on wall clock; the acceptance run is
	// the full (non-short) suite CI executes under -race.
	if testing.Short() {
		t.Skip("wall-clock 50-node mesh; skipped with -short")
	}
	m, err := New(Options{
		Nodes: 50, Topology: Random, Degree: 6, Fanout: 3, TTL: 6,
		PullPeers: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()

	m.Publish(0, meshPoint(0))
	lat := await(t, m, 1, 10*time.Second)
	t.Logf("fleet-wide propagation: %v", lat)
	if lat > time.Second {
		t.Fatalf("propagation took %v, want < 1s", lat)
	}
	if s, ok := m.Nodes[49].KB.Suggest(meshQueries(1)[0], nil); !ok || s.Action.Fix != catalog.FixMicrorebootEJB {
		t.Fatalf("last node's Suggest = %+v, %v; the fix never became actionable", s, ok)
	}

	// A burst from many origins converges to one canonical set.
	for i := 1; i < 20; i++ {
		m.Publish(i%50, meshPoint(i))
	}
	await(t, m, 20, 10*time.Second)
	if err := m.RankingsIdentical(meshQueries(20), 3); err != nil {
		t.Fatal(err)
	}
}

// TestRingMeshConvergesOnTTL drives the harshest topology: out-degree 1,
// so knowledge must relay across the full 25-hop diameter on TTL alone.
func TestRingMeshConvergesOnTTL(t *testing.T) {
	m, err := New(Options{Nodes: 25, Topology: Ring, Fanout: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()

	m.Publish(3, meshPoint(1))
	lat := await(t, m, 1, 10*time.Second)
	t.Logf("ring propagation: %v", lat)
	if err := m.RankingsIdentical(meshQueries(4), 2); err != nil {
		t.Fatal(err)
	}
}

// TestLossyMeshHealsByPull drops 40% of gossip pushes; the long-poll
// pull plane must repair whatever the epidemic loses.
func TestLossyMeshHealsByPull(t *testing.T) {
	m, err := New(Options{
		Nodes: 20, Topology: Random, Degree: 4, Fanout: 2, TTL: 4,
		DropRate: 0.4, PullPeers: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()

	for i := 0; i < 10; i++ {
		m.Publish(i%20, meshPoint(i))
	}
	await(t, m, 10, 20*time.Second)
	if err := m.RankingsIdentical(meshQueries(10), 3); err != nil {
		t.Fatal(err)
	}
	t.Logf("pushes dropped by the network: %d", m.Dropped())
}

// TestPartitionedMeshHealsOnRejoin cuts the mesh in half, lets each side
// learn its own fixes, then heals the cut: the pull plane carries the
// knowledge across, gossip spreads it within each half, and the whole
// fleet converges to the centralized-merge ranking.
func TestPartitionedMeshHealsOnRejoin(t *testing.T) {
	m, err := New(Options{
		Nodes: 20, Topology: Partitioned, Fanout: 3, TTL: 5,
		PullPeers: 4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Partition(true)
	m.Start()

	m.Publish(0, meshPoint(0))  // group 0 learns one fix
	m.Publish(19, meshPoint(1)) // group 1 learns another

	// Each half converges internally but not across the cut.
	halfDeadline := time.Now().Add(10 * time.Second)
	for {
		g0, g1 := 0, 0
		for _, n := range m.Nodes {
			if n.KB.LogSize() == 1 {
				if n.Group == 0 {
					g0++
				} else {
					g1++
				}
			}
		}
		if g0 == 10 && g1 == 10 {
			break
		}
		if time.Now().After(halfDeadline) {
			t.Fatalf("halves never converged internally: %d/%d", g0, g1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	m.Partition(false)
	await(t, m, 2, 20*time.Second)
	if err := m.RankingsIdentical(meshQueries(4), 2); err != nil {
		t.Fatal(err)
	}
}

// TestMeshSurvivesChurn crashes a quarter of the fleet (server dark,
// loops stopped), publishes through the survivors, then revives the
// dead nodes: the pull plane catches them up and the fleet still
// converges byte-identically.
func TestMeshSurvivesChurn(t *testing.T) {
	m, err := New(Options{
		Nodes: 16, Topology: Random, Degree: 4, Fanout: 2, TTL: 5,
		PullPeers: 3, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()

	for i := 12; i < 16; i++ {
		m.SetDown(i, true)
	}
	for i := 0; i < 8; i++ {
		m.Publish(i, meshPoint(i))
	}
	// Survivors converge while the dead stay dark.
	deadline := time.Now().Add(10 * time.Second)
	for {
		up := 0
		for i := 0; i < 12; i++ {
			if m.Nodes[i].KB.LogSize() == 8 {
				up++
			}
		}
		if up == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never converged: %d/12", up)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 12; i < 16; i++ {
		if got := m.Nodes[i].KB.LogSize(); got != 0 {
			t.Fatalf("crashed node %d learned %d points while down", i, got)
		}
		m.SetDown(i, false)
	}
	await(t, m, 8, 20*time.Second)
	if err := m.RankingsIdentical(meshQueries(8), 3); err != nil {
		t.Fatal(err)
	}
}

// TestCompactedMeshStaysBounded runs a gossiping mesh whose nodes all
// cap their KB memory: a stream of observations much larger than the cap
// federates freely while no node's arrival log ever exceeds the cap.
func TestCompactedMeshStaysBounded(t *testing.T) {
	const maxPoints = 120
	m, err := New(Options{
		Nodes: 8, Topology: Full, Fanout: 3, TTL: 3,
		Compaction: &synopsis.Compaction{MaxPoints: maxPoints, MergeRadius: 0.5},
		Seed:       47,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()

	for i := 0; i < 600; i++ {
		x := make([]float64, len(meshSchema))
		for d := range x {
			x[d] = float64(i*3 + d*700)
		}
		m.Publish(i%8, synopsis.Point{
			X:       x,
			Action:  synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"},
			Success: true,
		})
		if got := m.MaxLogPoints(); got > maxPoints {
			t.Fatalf("node log grew to %d points, cap is %d", got, maxPoints)
		}
	}
	// Let the mesh quiesce, then re-check the bound fleet-wide.
	time.Sleep(500 * time.Millisecond)
	if got := m.MaxLogPoints(); got > maxPoints {
		t.Fatalf("quiesced mesh holds %d points, cap is %d", got, maxPoints)
	}
	// Compaction under federation must still leave every node usable.
	for _, n := range m.Nodes {
		if n.KB.TrainingSize() == 0 {
			t.Fatal("a compacted node lost all its knowledge")
		}
	}
}
