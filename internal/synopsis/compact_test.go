package synopsis

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
)

// TestCompactPointsExactDedup pins keep-first exact dedup and that
// failures are distinct from successes at the same coordinates.
func TestCompactPointsExactDedup(t *testing.T) {
	a := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	b := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	neg := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	neg.Success = false
	c := pt([]float64{3, 4}, catalog.FixFullRestart, "")

	kept := CompactPoints([]Point{a, neg, b, c}, Compaction{}, 0)
	want := []Point{a, neg, c}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
}

// TestCompactPointsMergeRadius pins the near-duplicate merge: a point
// within MergeRadius of an earlier kept point of the same action+outcome
// is dropped; different actions, different outcomes, and points beyond
// the radius survive.
func TestCompactPointsMergeRadius(t *testing.T) {
	base := pt([]float64{1, 1}, catalog.FixUpdateStats, "items")
	near := pt([]float64{1.05, 1}, catalog.FixUpdateStats, "items")
	far := pt([]float64{2, 1}, catalog.FixUpdateStats, "items")
	otherFix := pt([]float64{1.05, 1}, catalog.FixFullRestart, "")
	nearNeg := pt([]float64{1, 1.05}, catalog.FixUpdateStats, "items")
	nearNeg.Success = false

	kept := CompactPoints([]Point{base, near, far, otherFix, nearNeg}, Compaction{MergeRadius: 0.2}, 0)
	want := []Point{base, far, otherFix, nearNeg}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
}

// TestCompactPointsEviction pins cap eviction: failures evict first,
// then the oldest successes, and no action's successes drop below
// MinPerAction.
func TestCompactPointsEviction(t *testing.T) {
	var ps []Point
	for i := 0; i < 4; i++ {
		f := pt([]float64{float64(i), -1}, catalog.FixUpdateStats, "items")
		f.Success = false
		ps = append(ps, f)
	}
	for i := 0; i < 6; i++ {
		ps = append(ps, pt([]float64{float64(i), 1}, catalog.FixUpdateStats, "items"))
	}
	ps = append(ps, pt([]float64{99, 2}, catalog.FixFullRestart, ""))

	kept := CompactPoints(ps, Compaction{MinPerAction: 2}, 5)
	if len(kept) != 5 {
		t.Fatalf("kept %d points, want 5", len(kept))
	}
	perAction := map[string]int{}
	for _, p := range kept {
		if !p.Success {
			t.Fatalf("a failure survived eviction while successes were dropped: %v", p)
		}
		perAction[p.Action.Key()]++
	}
	// FixFullRestart had exactly one success: it must survive.
	if perAction[Action{Fix: catalog.FixFullRestart}.Key()] != 1 {
		t.Fatalf("eviction dropped an action's last exemplar: %v", perAction)
	}
	// The survivors of the crowded action are its newest successes.
	if got := perAction[Action{Fix: catalog.FixUpdateStats, Target: "items"}.Key()]; got != 4 {
		t.Fatalf("crowded action kept %d, want 4", got)
	}
	if kept[0].X[0] != 2 {
		t.Fatalf("eviction was not oldest-first: first survivor %v", kept[0])
	}

	// The MinPerAction floor wins over the target when they conflict.
	kept = CompactPoints(ps, Compaction{MinPerAction: 3}, 2)
	perAction = map[string]int{}
	for _, p := range kept {
		perAction[p.Action.Key()]++
	}
	if perAction[Action{Fix: catalog.FixUpdateStats, Target: "items"}.Key()] != 3 {
		t.Fatalf("floor not honored: %v", perAction)
	}
}

// compactStream builds a duplicate-heavy observation stream: coordinates
// drawn from a small integer grid so exact duplicates are frequent, with
// a sprinkle of failures riding along as they do in a real arrival log.
func compactStream(rng *rand.Rand, n int) []Point {
	fixes := []catalog.FixID{
		catalog.FixUpdateStats, catalog.FixMicrorebootEJB,
		catalog.FixRebootAppTier, catalog.FixFailoverNode,
	}
	ps := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := []float64{
			float64(rng.Intn(6)), float64(rng.Intn(6)),
			float64(rng.Intn(4)), float64(rng.Intn(3)),
		}
		p := Point{
			X:       x,
			Action:  Action{Fix: fixes[rng.Intn(len(fixes))], Target: "t"},
			Success: rng.Intn(10) > 0,
		}
		ps = append(ps, p)
	}
	return ps
}

// TestCompactionPreservesRankK is the convergence-invariant property
// test: identity-preserving compaction (radius 0, no cap) leaves every
// RankK byte-identical to (a) the uncompacted knowledge base and (b) a
// fresh learner replayed from the Merge of the KB's own snapshots —
// compaction applies exactly Merge's dedup, nothing more.
func TestCompactionPreservesRankK(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		sh := NewShared(NewNearestNeighbor())
		if err := sh.EnableCompaction(Compaction{}); err != nil {
			t.Fatal(err)
		}

		schema := []string{"d0", "d1", "d2", "d3"}
		var snaps []*Snapshot
		stream := compactStream(rng, 600)
		for i := 0; i < len(stream); i += 200 {
			batch := stream[i : i+200]
			sh.AddBatch(batch)
			snaps = append(snaps, mkSnap("nearest-neighbor", schema, batch...))
		}

		queries := make([][]float64, 40)
		for i := range queries {
			queries[i] = []float64{rng.Float64() * 6, rng.Float64() * 6, rng.Float64() * 4, rng.Float64() * 3}
		}
		before := make([][]Suggestion, len(queries))
		for i, q := range queries {
			before[i] = sh.RankK(q, -1)
		}

		dropped, err := sh.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if dropped == 0 {
			t.Fatal("duplicate-heavy stream compacted nothing; the property run is vacuous")
		}

		merged, err := Merge(snaps...)
		if err != nil {
			t.Fatal(err)
		}
		if sh.LogSize() != len(merged.Points) {
			t.Fatalf("compacted log holds %d points, Merge of snapshots %d", sh.LogSize(), len(merged.Points))
		}
		replayed := NewNearestNeighbor()
		if err := merged.Replay(replayed, detect.NewSymptomSpace()); err != nil {
			t.Fatal(err)
		}

		for i, q := range queries {
			after := sh.RankK(q, -1)
			if !reflect.DeepEqual(after, before[i]) {
				t.Fatalf("trial %d: compaction changed RankK(%v):\nbefore %v\nafter  %v", trial, q, before[i], after)
			}
			if fromMerge := replayed.RankK(q, -1); !reflect.DeepEqual(after, fromMerge) {
				t.Fatalf("trial %d: compacted RankK(%v) differs from merge-of-snapshots:\ncompacted %v\nmerged    %v", trial, q, after, fromMerge)
			}
		}
	}
}

// TestCompactionDeltaSinceResync pins the snapshot-GC contract for
// federation cursors: a peer current to a pre-compaction sequence gets
// the full compacted history back (one re-pull, dedup absorbs it), and a
// peer current to the post-compaction sequence gets nothing.
func TestCompactionDeltaSinceResync(t *testing.T) {
	sh := NewShared(NewNearestNeighbor())
	if err := sh.EnableCompaction(Compaction{}); err != nil {
		t.Fatal(err)
	}
	p := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	sh.Add(p)
	sh.Add(p) // exact duplicate: compaction will drop it
	sh.Add(pt([]float64{3, 4}, catalog.FixFullRestart, ""))
	cursor := sh.Seq()

	if dropped, err := sh.Compact(); err != nil || dropped != 1 {
		t.Fatalf("Compact = (%d, %v), want (1, nil)", dropped, err)
	}
	if sh.Seq() <= cursor {
		t.Fatalf("compaction did not advance the sequence: %d -> %d", cursor, sh.Seq())
	}
	pts, seq := sh.DeltaSince(cursor)
	if len(pts) != 2 || seq != sh.Seq() {
		t.Fatalf("stale cursor got %d points at seq %d, want the full 2-point compacted history at %d", len(pts), seq, sh.Seq())
	}
	if pts2, _ := sh.DeltaSince(seq); len(pts2) != 0 {
		t.Fatalf("current cursor re-pulled %d points", len(pts2))
	}
}

// TestSharedChangedAndOnPublish covers the publish notification surface:
// Changed channels close at the next publish, OnPublish hooks observe
// every publish's sequence and may call DeltaSince re-entrantly, and
// both fire for compaction publishes too.
func TestSharedChangedAndOnPublish(t *testing.T) {
	sh := NewShared(NewNearestNeighbor())
	if err := sh.EnableCompaction(Compaction{}); err != nil {
		t.Fatal(err)
	}

	var seqs []uint64
	var hookPts []int
	sh.OnPublish(func(seq uint64) {
		seqs = append(seqs, seq)
		ps, _ := sh.DeltaSince(0) // must not deadlock
		hookPts = append(hookPts, len(ps))
	})

	ch := sh.Changed()
	select {
	case <-ch:
		t.Fatal("Changed channel closed before any publish")
	default:
	}
	p := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	sh.Add(p)
	select {
	case <-ch:
	default:
		t.Fatal("Changed channel still open after a publish")
	}

	ch = sh.Changed()
	sh.Add(p) // duplicate — still a publish (the log grew)
	<-ch

	ch = sh.Changed()
	if dropped, err := sh.Compact(); err != nil || dropped != 1 {
		t.Fatalf("Compact = (%d, %v), want (1, nil)", dropped, err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("compaction published without waking Changed waiters")
	}

	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("hook saw sequences %v, want %v", seqs, want)
	}
	if want := []int{1, 2, 1}; !reflect.DeepEqual(hookPts, want) {
		t.Fatalf("hook-time DeltaSince sizes %v, want %v", hookPts, want)
	}
}

// unresettable is a learner Shared accepts — it clones — but cannot compact:
// it has no Reset.
type unresettable struct{ opaque }

func (u unresettable) Clone() Synopsis { return unresettable{opaque{u.s.(Cloner).Clone()}} }

// TestEnableCompactionValidation pins the error cases: bases without
// Reset, merge radii that are not finite distances, and configurations
// that could never hold their own cap.
func TestEnableCompactionValidation(t *testing.T) {
	if err := NewShared(unresettable{opaque{NewNearestNeighbor()}}).EnableCompaction(Compaction{}); err == nil {
		t.Fatal("EnableCompaction accepted a base without Reset")
	}
	sh := NewShared(NewNearestNeighbor())
	for _, bad := range []Compaction{
		{MergeRadius: -1},
		{MergeRadius: math.NaN()},
		{MergeRadius: math.Inf(1)},
		{MergeRadius: math.Inf(-1)},
		{MaxPoints: -5},
		{MaxPoints: 2, MinPerAction: 3},
	} {
		if err := sh.EnableCompaction(bad); err == nil {
			t.Fatalf("EnableCompaction accepted %+v", bad)
		}
	}
	if _, err := NewShared(NewNearestNeighbor()).Compact(); err == nil {
		t.Fatal("Compact ran without compaction enabled")
	}
}

// syntheticCampaign drives episodes episodes of a synthetic healing
// campaign against kb: faults are draws from well-separated clusters,
// recovery means the KB suggests the cluster's fix, and every episode's
// outcome (plus an occasional failed attempt) is written back. It
// returns the recovered count, checking the log bound against cap (if
// cap > 0) every episode.
func syntheticCampaign(t *testing.T, kb *Shared, seed int64, episodes, cap int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fixes := []catalog.FixID{
		catalog.FixUpdateStats, catalog.FixMicrorebootEJB, catalog.FixRebootAppTier,
		catalog.FixFailoverNode, catalog.FixFullRestart, catalog.FixRebootDBTier,
	}
	centers := make([][]float64, len(fixes))
	for i := range centers {
		c := make([]float64, 4)
		for d := range c {
			c[d] = float64(10 * ((i + d) % len(fixes)))
		}
		centers[i] = c
	}
	recovered := 0
	var batch []Point // written back every flushEvery episodes, like the fleet's learn flush
	const flushEvery = 50
	// Recovery is evaluated on a deterministic subsample of episodes —
	// Suggest is read-only, so sampling changes nothing the two campaigns
	// could diverge on, and it keeps the uncompacted control (whose whole
	// point is to be wastefully large) affordable.
	const checkEvery = 4
	for ep := 0; ep < episodes; ep++ {
		cls := rng.Intn(len(fixes))
		x := make([]float64, 4)
		for d := range x {
			x[d] = centers[cls][d] + rng.NormFloat64()*0.02
		}
		if ep%checkEvery == 0 {
			if sug, ok := kb.Suggest(x, nil); ok && sug.Action.Fix == fixes[cls] {
				recovered++
			}
		}
		if rng.Intn(4) == 0 {
			// A failed attempt sometimes rides along in the log, as the
			// real loop's exclusion set leaves one. The wrong fix is drawn
			// deterministically (not from the suggestion) so both
			// campaigns see byte-identical write streams and recovered-%
			// is the only place they can differ.
			wrong := fixes[(cls+1)%len(fixes)]
			batch = append(batch, Point{X: x, Action: Action{Fix: wrong, Target: "t"}, Success: false})
		}
		batch = append(batch, Point{X: x, Action: Action{Fix: fixes[cls], Target: "t"}, Success: true})
		if len(batch) >= flushEvery || ep == episodes-1 {
			kb.AddBatch(batch)
			batch = batch[:0]
			if cap > 0 {
				if n := kb.LogSize(); n > cap {
					t.Fatalf("episode %d: log holds %d points, cap %d", ep, n, cap)
				}
			}
		}
	}
	return recovered
}

// TestCompactionBoundedCampaign is the acceptance-criteria property run:
// across a 10⁵-episode campaign the bounded-memory KB never exceeds its
// cap at any externally-observable moment, and its recovered-% is
// unchanged vs. the uncompacted KB at the same seed.
func TestCompactionBoundedCampaign(t *testing.T) {
	episodes := 100000
	if testing.Short() {
		episodes = 20000
	}
	const seed, cap = 777, 2000

	plain := NewShared(NewNearestNeighbor())
	wantRecovered := syntheticCampaign(t, plain, seed, episodes, 0)

	bounded := NewShared(NewNearestNeighbor())
	if err := bounded.EnableCompaction(Compaction{MaxPoints: cap, MergeRadius: 0.5}); err != nil {
		t.Fatal(err)
	}
	gotRecovered := syntheticCampaign(t, bounded, seed, episodes, cap)

	if plain.LogSize() <= cap {
		t.Fatalf("uncompacted control stayed under the cap (%d points); the bound run is vacuous", plain.LogSize())
	}
	checks := episodes / 4 // syntheticCampaign samples every 4th episode
	if gotRecovered != wantRecovered {
		t.Fatalf("recovered-%% changed under compaction: %d/%d vs %d/%d uncompacted",
			gotRecovered, checks, wantRecovered, checks)
	}
	if gotRecovered < checks*9/10 {
		t.Fatalf("recovered only %d of %d checks; the campaign is not exercising healing", gotRecovered, checks)
	}
	if fin := bounded.LogSize(); fin > cap {
		t.Fatalf("final log %d exceeds cap %d", fin, cap)
	}
	t.Logf("bounded KB: %d points vs %d uncompacted, recovered %.1f%%",
		bounded.LogSize(), plain.LogSize(), 100*float64(gotRecovered)/float64(checks))
}

// TestCompactionAllLearners sweeps Reset across every built-in learner:
// compaction of a duplicate-heavy log must shrink the log on each while
// keeping the learner consistent (TrainingSize matches a fresh replay of
// the survivors).
func TestCompactionAllLearners(t *testing.T) {
	builders := map[string]func() Synopsis{
		"nn":       func() Synopsis { return NewNearestNeighbor() },
		"nn-neg":   func() Synopsis { return &NearestNeighbor{UseNegatives: true, ex: newExemplars()} },
		"kmeans":   func() Synopsis { return NewKMeans() },
		"adaboost": func() Synopsis { return NewAdaBoost(5) },
		"bayes":    func() Synopsis { return NewNaiveBayes() },
	}
	rng := rand.New(rand.NewSource(99))
	stream := compactStream(rng, 400)
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			sh := NewShared(build())
			if err := sh.EnableCompaction(Compaction{}); err != nil {
				t.Fatal(err)
			}
			sh.AddBatch(stream)
			before := sh.LogSize()
			dropped, err := sh.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if dropped == 0 {
				t.Fatal("nothing compacted from a duplicate-heavy stream")
			}
			if sh.LogSize() != before-dropped {
				t.Fatalf("log %d after dropping %d from %d", sh.LogSize(), dropped, before)
			}
			survivors, _ := sh.DeltaSince(0)
			fresh := build()
			AddAll(fresh, survivors)
			if got, want := sh.TrainingSize(), fresh.TrainingSize(); got != want {
				t.Fatalf("compacted TrainingSize %d, fresh replay of survivors %d", got, want)
			}
			q := []float64{1, 1, 1, 1}
			if got, want := sh.RankK(q, 3), fresh.RankK(q, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("compacted RankK %v, fresh replay %v", got, want)
			}
		})
	}
}

// TestCompactionHysteresis pins the auto-trigger arithmetic: a write
// stream one past the cap compacts down to 3/4 of it, so steady-state
// writes do not compact every time.
func TestCompactionHysteresis(t *testing.T) {
	const cap = 100
	sh := NewShared(NewNearestNeighbor())
	if err := sh.EnableCompaction(Compaction{MaxPoints: cap}); err != nil {
		t.Fatal(err)
	}
	// Distinct points: dedup and merge find nothing, only eviction bounds.
	for i := 0; i < 3*cap; i++ {
		sh.Add(pt([]float64{float64(i), 1}, catalog.FixUpdateStats, "items"))
		if n := sh.LogSize(); n > cap {
			t.Fatalf("write %d: log %d exceeds cap %d", i, n, cap)
		}
	}
	// After the last compaction the log sits in (3/4·cap, cap].
	if n := sh.LogSize(); n <= cap-cap/compactTargetDivisor-1 {
		t.Fatalf("log %d suggests compaction runs more often than the hysteresis intends", n)
	}
}
