package kbsync_test

// Property tests for the sync algebra. The federation design leans on
// three algebraic facts about ApplyDelta over canonical point sets —
// idempotence (retries are free), commutativity (peer order does not
// matter), associativity (batching does not matter) — plus their
// survival under epochs and compaction. The unit tests pin single
// hand-built cases; these drive hundreds of randomized deltas, random
// interleavings and random groupings through the same paths and require
// the final knowledge bases to agree exactly, every time.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/synopsis"
)

var propSchema = []string{"svc.latency", "svc.errors", "db.cpu", "app.heap"}

// randPoint draws a random observation: random corner of the symptom
// space, random fix/target/outcome. Coordinates are quantized so
// distinct draws can collide — duplicate identities are exactly what
// the algebra has to cope with.
func randPoint(rng *rand.Rand) synopsis.Point {
	x := make([]float64, len(propSchema))
	for d := range x {
		x[d] = float64(rng.Intn(8)) * 0.5
	}
	fixes := []catalog.FixID{catalog.FixMicrorebootEJB, catalog.FixKillHungQuery, catalog.FixUpdateStats, catalog.FixRebootAppTier}
	return synopsis.Point{
		X:       x,
		Action:  synopsis.Action{Fix: fixes[rng.Intn(len(fixes))], Target: fmt.Sprintf("t%d", rng.Intn(3))},
		Success: rng.Intn(4) != 0,
	}
}

// randDeltas cuts n random points into random-size deltas, each stamped
// with its own epoch — the shape a node sees pulling several restarted
// peers.
func randDeltas(rng *rand.Rand, n int) []*synopsis.Delta {
	var ds []*synopsis.Delta
	for made := 0; made < n; {
		size := 1 + rng.Intn(4)
		if made+size > n {
			size = n - made
		}
		d := &synopsis.Delta{
			Seq:      uint64(made + size),
			Epoch:    fmt.Sprintf("epoch-%d", rng.Intn(4)),
			Symptoms: propSchema,
		}
		for i := 0; i < size; i++ {
			d.Points = append(d.Points, randPoint(rng))
		}
		ds = append(ds, d)
		made += size
	}
	return ds
}

// canonKeys is the node's canonical point set — the value the algebra
// is defined over. Sorted so sets compare with DeepEqual.
func canonKeys(kb *synopsis.Shared) []string {
	pts, _ := kb.DeltaSince(0)
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = synopsis.CanonicalKey(p)
	}
	sort.Strings(keys)
	return keys
}

// canonRank ranks the KB's canonical point set after replaying it in
// canonical order — the converged-ranking oracle the federation
// guarantee is stated in (rankings equal to replaying Merge of the
// snapshots; raw insertion order may tie-break differently).
func canonRank(kb *synopsis.Shared) []synopsis.Suggestion {
	pts, _ := kb.DeltaSince(0)
	sort.Slice(pts, func(i, j int) bool {
		return synopsis.CanonicalKey(pts[i]) < synopsis.CanonicalKey(pts[j])
	})
	fresh := synopsis.NewShared(synopsis.NewNearestNeighbor())
	fresh.AddBatch(pts)
	return rankProbe(fresh)
}

// rankProbe compares full rankings at a few fixed probes; identical
// canonical sets must rank identically.
func rankProbe(kb *synopsis.Shared) []synopsis.Suggestion {
	var out []synopsis.Suggestion
	for _, x := range [][]float64{{0.5, 0, 1, 0}, {2, 2, 0, 0}, {0, 0, 0, 3.5}} {
		out = append(out, kb.RankK(x, 4)...)
	}
	return out
}

func TestPropertyApplyDeltaIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		node, kb := newNode(propSchema...)
		for _, d := range randDeltas(rng, 1+rng.Intn(20)) {
			first := node.ApplyDelta(d)
			size, seq := kb.LogSize(), kb.Seq()
			// Re-delivery (a retried poll, a duplicate push)
			// adds nothing and publishes nothing — any number of times.
			for rep := 0; rep < 1+rng.Intn(3); rep++ {
				if again := node.ApplyDelta(d); again != 0 {
					t.Fatalf("trial %d: re-applying a delta added %d points (first added %d)", trial, again, first)
				}
			}
			if kb.LogSize() != size || kb.Seq() != seq {
				t.Fatalf("trial %d: re-apply changed the KB: size %d→%d seq %d→%d",
					trial, size, kb.LogSize(), seq, kb.Seq())
			}
		}
	}
}

func TestPropertyApplyDeltaCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		ds := randDeltas(rng, 2+rng.Intn(24))
		a, kbA := newNode(propSchema...)
		b, kbB := newNode(propSchema...)
		for _, d := range ds {
			a.ApplyDelta(d)
		}
		perm := rng.Perm(len(ds))
		for _, i := range perm {
			b.ApplyDelta(ds[i])
		}
		if !reflect.DeepEqual(canonKeys(kbA), canonKeys(kbB)) {
			t.Fatalf("trial %d: order %v changed the canonical set:\n a=%v\n b=%v",
				trial, perm, canonKeys(kbA), canonKeys(kbB))
		}
		if !reflect.DeepEqual(canonRank(kbA), canonRank(kbB)) {
			t.Fatalf("trial %d: order %v changed rankings", trial, perm)
		}
	}
}

func TestPropertyApplyDeltaAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		ds := randDeltas(rng, 3+rng.Intn(21))
		var all []synopsis.Point
		for _, d := range ds {
			all = append(all, d.Points...)
		}
		// One big delta versus the same points in random small deltas.
		one, kbOne := newNode(propSchema...)
		one.ApplyDelta(&synopsis.Delta{Seq: uint64(len(all)), Symptoms: propSchema, Points: all})
		many, kbMany := newNode(propSchema...)
		for _, i := range rng.Perm(len(ds)) {
			many.ApplyDelta(ds[i])
		}
		if !reflect.DeepEqual(canonKeys(kbOne), canonKeys(kbMany)) {
			t.Fatalf("trial %d: grouping changed the canonical set:\n one=%v\n many=%v",
				trial, canonKeys(kbOne), canonKeys(kbMany))
		}
		if !reflect.DeepEqual(canonRank(kbOne), canonRank(kbMany)) {
			t.Fatalf("trial %d: grouping changed rankings", trial)
		}
	}
}

// TestPropertyInterleavedLearningConverges drives the full two-node
// exchange under a random interleaving of local learning and delta
// application on both sides, then completes one final exchange in each
// direction: both canonical sets must be equal, and equal to the union.
func TestPropertyInterleavedLearningConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		a, kbA := newNode(propSchema...)
		b, kbB := newNode(propSchema...)
		var cursorA, cursorB uint64 // b's cursor into a, a's into b
		steps := 8 + rng.Intn(24)
		for i := 0; i < steps; i++ {
			switch rng.Intn(4) {
			case 0:
				kbA.Add(randPoint(rng))
			case 1:
				kbB.Add(randPoint(rng))
			case 2: // b pulls a
				d := a.Delta(cursorA)
				b.ApplyDelta(d)
				cursorA = d.Seq
			case 3: // a pulls b
				d := b.Delta(cursorB)
				a.ApplyDelta(d)
				cursorB = d.Seq
			}
		}
		// Final anti-entropy round: each side drains the other from 0 —
		// idempotence makes the full re-pull safe.
		b.ApplyDelta(a.Delta(0))
		a.ApplyDelta(b.Delta(0))
		if !reflect.DeepEqual(canonKeys(kbA), canonKeys(kbB)) {
			t.Fatalf("trial %d: interleaved exchange diverged:\n a=%v\n b=%v",
				trial, canonKeys(kbA), canonKeys(kbB))
		}
	}
}

// TestPropertyCompactionPreservesAlgebra extends the algebra to
// compacted knowledge bases: under a cap, the arrival log stays
// bounded, the canonical survivor set still ranks byte-identically to
// replaying the survivors into a fresh learner, and re-applying a
// delta the compactor has already folded in still adds nothing new
// (the dedup layer, not the log, carries identity).
func TestPropertyCompactionPreservesAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const maxPoints = 24
	for trial := 0; trial < 30; trial++ {
		node, kb := newNode(propSchema...)
		if err := kb.EnableCompaction(synopsis.Compaction{MaxPoints: maxPoints, MergeRadius: 0.25}); err != nil {
			t.Fatal(err)
		}
		ds := randDeltas(rng, 30+rng.Intn(60))
		for _, d := range ds {
			node.ApplyDelta(d)
			if got := kb.LogSize(); got > maxPoints {
				t.Fatalf("trial %d: log grew to %d, cap is %d", trial, got, maxPoints)
			}
		}
		// Replaying the survivors into a fresh learner ranks the same —
		// compaction's convergence invariant, under random input.
		survivors, _ := kb.DeltaSince(0)
		fresh := synopsis.NewShared(synopsis.NewNearestNeighbor())
		fresh.AddBatch(survivors)
		if !reflect.DeepEqual(rankProbe(kb), rankProbe(fresh)) {
			t.Fatalf("trial %d: compacted KB ranks differently from replaying its survivors", trial)
		}
		// Idempotence survives eviction: deltas already folded in (and
		// possibly compacted away) stay duplicates.
		size, seq := kb.LogSize(), kb.Seq()
		if again := node.ApplyDelta(ds[rng.Intn(len(ds))]); again != 0 {
			t.Fatalf("trial %d: re-applying a compacted-away delta added %d points", trial, again)
		}
		if kb.LogSize() != size || kb.Seq() != seq {
			t.Fatalf("trial %d: re-apply after compaction changed the KB", trial)
		}
	}
}
