package synopsis

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"selfheal/internal/catalog"
)

// tiePoints is streamPoints with quantized coordinates: integer-valued
// vectors collide constantly, so many points sit at exactly equal
// distances from a query and any tie-breaking divergence between the
// index and the brute scan shows up immediately. Fixes get several
// targets each so action filters prune within a fix, not just across.
func tiePoints(seed int64, n int) []Point {
	rng := rand.New(rand.NewSource(seed))
	fixes := []catalog.FixID{
		catalog.FixUpdateStats, catalog.FixMicrorebootEJB,
		catalog.FixRebootAppTier, catalog.FixKillHungQuery,
	}
	out := make([]Point, n)
	for i := range out {
		c := rng.Intn(len(fixes))
		// Ragged dimensionality: some vectors are shorter and rely on
		// the zero-extension convention.
		dim := 3 + rng.Intn(4)
		x := make([]float64, dim)
		for d := range x {
			x[d] = float64(c*2 + rng.Intn(4))
		}
		out[i] = Point{
			X:       x,
			Action:  Action{Fix: fixes[c], Target: fmt.Sprintf("t%d", rng.Intn(3))},
			Success: rng.Intn(5) != 0,
		}
	}
	return out
}

func tieQueries(seed int64, pts []Point, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, 0, n+len(pts)/10)
	for i := 0; i < n; i++ {
		x := make([]float64, 2+rng.Intn(5))
		for d := range x {
			x[d] = float64(rng.Intn(8))
		}
		out = append(out, x)
	}
	// Training vectors themselves: exact zero-distance ties.
	for i := 0; i < len(pts); i += 10 {
		out = append(out, pts[i].X)
	}
	return out
}

// TestGroupSearchMatchesBruteForce: the group search's contract — every
// fix's nearest exemplar identical to the O(n) brute scan's, with and
// without filters, on tie-heavy data and on forests of every shape a store
// of n points takes (a bulk-loaded tree, carries and a tail).
func TestGroupSearchMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 33, 250, 1024} {
		pts := tiePoints(int64(n)+1, n)
		queries := tieQueries(int64(n)+2, pts, 40)
		assertGroupOracle(t, fmt.Sprintf("n=%d", n), bulkThenSingles(pts).ex, queries)
		// One fix: the group search is a single nearest-neighbour search,
		// its bound that one class's best, tied by many points.
		one := make([]Point, len(pts))
		for i, p := range pts {
			one[i] = p
			one[i].Action.Fix = catalog.FixUpdateStats
		}
		assertGroupOracle(t, fmt.Sprintf("n=%d/one-fix", n), bulkThenSingles(one).ex, queries)
	}
}

// TestBruteForceNearestOrder: the linear scan returns the k nearest points
// ordered by distance, then by ordinal, with NaN distances last — the order
// k-means ranks its centroids in — for every k, on tie-heavy data.
func TestBruteForceNearestOrder(t *testing.T) {
	pts := tiePoints(11, 60)
	pts[7].X = []float64{math.NaN()}
	pts[8].X = []float64{math.NaN(), 1}
	brute := NewBruteForceIndex(pts)
	queries := append(tieQueries(12, pts, 20), []float64{math.NaN()})
	for qi, x := range queries {
		all := make([]Neighbor, len(pts))
		for i, p := range pts {
			all[i] = Neighbor{Ord: i, Dist: euclidean(x, p.X)}
		}
		// Stable: equal distances keep ordinal order.
		sort.SliceStable(all, func(i, j int) bool {
			a, b := all[i].Dist, all[j].Dist
			if math.IsNaN(a) || math.IsNaN(b) {
				return !math.IsNaN(a) && math.IsNaN(b)
			}
			return a < b
		})
		for _, k := range []int{-1, 0, 1, 2, 5, len(pts), len(pts) + 3} {
			want := all
			if k >= 0 && k < len(all) {
				want = all[:k]
			}
			got := brute.Nearest(x, k)
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].Ord == want[i].Ord && math.Float64bits(got[i].Dist) == math.Float64bits(want[i].Dist)
			}
			if !same {
				t.Fatalf("q%d k=%d: Nearest %v, want %v", qi, k, got, want)
			}
		}
	}
}

// assertGroupOracle: for every query and every fix of the store the group
// search answers what the brute scan answers — found or not, the same
// action, at a distance equal bit for bit (NaN included). It checks three
// filters: none, every action on target t1, and each fix's own unfiltered
// answer, so every search has to go past the exemplar it found first.
func assertGroupOracle(t *testing.T, name string, ex *exemplars, queries [][]float64) {
	t.Helper()
	var onT1 []Action
	for _, fix := range ex.cls.fixes {
		onT1 = append(onT1, Action{Fix: fix, Target: "t1"})
	}
	for qi, x := range queries {
		pr := &probe{x: x}
		var first []Action
		if g := ex.nearestPerFix(pr, nil); g != nil {
			for tag, found := range g.found {
				if found {
					first = append(first, ex.all[g.ord[tag]].Action)
				}
			}
		}
		for fi, f := range []*ActionFilter{nil, ExcludeActions(onT1...), ExcludeActions(first...)} {
			g := ex.nearestPerFix(pr, f)
			for tag, fix := range ex.cls.fixes {
				want, wantD, wantOK := ex.bruteNearest(x, fix, f)
				gotOK := g != nil && g.found[tag]
				if gotOK != wantOK {
					t.Fatalf("%s: q%d filter %d fix %v: group found=%v, brute found=%v", name, qi, fi, fix, gotOK, wantOK)
				}
				if !gotOK {
					continue
				}
				got, gotD := ex.all[g.ord[tag]].Action, g.d[tag]
				if got != want || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("%s: q%d filter %d fix %v: group (%v, %v), brute (%v, %v)", name, qi, fi, fix, got, gotD, want, wantD)
				}
			}
		}
	}
}

// withBruteResolve runs f with the KD-tree read path disabled, forcing
// every resolve through the brute scan the index must match.
func withBruteResolve(f func()) {
	indexResolve = false
	defer func() { indexResolve = true }()
	f()
}

// assertOracle checks that a learner's indexed Suggest/RankK answers are
// byte-identical to its brute-force answers for a battery of queries,
// filters, and k values. Besides fixed filters, each query gets two derived
// from its indexed, unfiltered answer — one excluding the action Suggest
// names, one every action RankK(x, 3) names — so every query's filtered
// Suggest has to search past the exemplar the unfiltered read found.
func assertOracle(t *testing.T, name string, s Synopsis, queries [][]float64) {
	t.Helper()
	fixed := []*ActionFilter{
		nil,
		ExcludeActions(Action{Fix: catalog.FixUpdateStats, Target: "t0"}),
		ExcludeActions(
			Action{Fix: catalog.FixMicrorebootEJB, Target: "t1"},
			Action{Fix: catalog.FixRebootAppTier, Target: "t2"},
			Action{Fix: catalog.FixKillHungQuery, Target: "t0"},
		),
		// Every action on one target: the filter prunes across all fixes.
		ExcludeActions(
			Action{Fix: catalog.FixUpdateStats, Target: "t2"},
			Action{Fix: catalog.FixMicrorebootEJB, Target: "t2"},
			Action{Fix: catalog.FixRebootAppTier, Target: "t2"},
			Action{Fix: catalog.FixKillHungQuery, Target: "t2"},
		),
	}
	for qi, x := range queries {
		sug, _ := s.Suggest(x, nil)
		var top []Action
		for _, r := range s.RankK(x, 3) {
			top = append(top, r.Action)
		}
		filters := append(fixed[:len(fixed):len(fixed)], ExcludeActions(sug.Action), ExcludeActions(top...))
		for fi, f := range filters {
			gotSug, gotOK := s.Suggest(x, f)
			var wantSug Suggestion
			var wantOK bool
			withBruteResolve(func() { wantSug, wantOK = s.Suggest(x, f) })
			if gotOK != wantOK || gotSug != wantSug {
				t.Fatalf("%s: Suggest(q%d, f%d): indexed (%v,%v) != brute (%v,%v)",
					name, qi, fi, gotSug, gotOK, wantSug, wantOK)
			}
		}
		for _, k := range []int{-1, 0, 1, 2, 10} {
			got := s.RankK(x, k)
			var want []Suggestion
			withBruteResolve(func() { want = s.RankK(x, k) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RankK(q%d, %d): indexed %v != brute %v", name, qi, k, got, want)
			}
		}
		// The RankK(x, k) == RankK(x, -1)[:k] contract, on the indexed path.
		full := s.RankK(x, -1)
		for _, k := range []int{0, 1, 3} {
			want := full
			if k < len(full) {
				want = full[:k]
			}
			got := s.RankK(x, k)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RankK(q%d, %d) = %v, want full-ranking prefix %v", name, qi, k, got, want)
			}
		}
	}
}

// TestIndexedLearnersMatchBruteOracle: the acceptance property — for every
// learner, seed, and KB size, indexed Suggest/RankK results are identical
// to the brute scan, including on KBs assembled by Merge and by delta
// application. The "online" row is the §5.2 drift ablation's sliding
// window: a nearest neighbor that forgot all but its 24 latest successes.
func TestIndexedLearnersMatchBruteOracle(t *testing.T) {
	learners := learnersUnderTest()
	learners["online"] = func() Learner { return NewNearestNeighbor() }
	for name, fresh := range learners {
		for _, seed := range []int64{3, 17} {
			for _, n := range []int{25, 300, 1500} {
				if n == 1500 && name == "adaboost" {
					continue // refit cost, covered at 300
				}
				t.Run(fmt.Sprintf("%s/seed=%d/n=%d", name, seed, n), func(t *testing.T) {
					pts := tiePoints(seed, n)
					s := fresh()
					s.AddBatch(pts)
					if name == "online" {
						s.(*NearestNeighbor).Forget(24)
					}
					assertOracle(t, name, s, tieQueries(seed+1, pts, 25))
				})
			}
		}
	}
}

// TestMergedAndDeltaKBsMatchBruteOracle: portability paths build their KBs
// through Replay and delta application; the oracle property must hold for
// those exactly as for natively-grown KBs.
func TestMergedAndDeltaKBsMatchBruteOracle(t *testing.T) {
	ptsA, ptsB := tiePoints(5, 400), tiePoints(6, 400)

	t.Run("post-merge", func(t *testing.T) {
		a := NewNearestNeighbor()
		a.AddBatch(ptsA)
		b := NewNearestNeighbor()
		b.AddBatch(ptsB)
		snapA, err := Capture(a, SaveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		snapB, err := Capture(b, SaveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge(snapA, snapB)
		if err != nil {
			t.Fatal(err)
		}
		s := NewNearestNeighbor()
		if err := merged.Replay(s, nil); err != nil {
			t.Fatal(err)
		}
		assertOracle(t, "merged-nn", s, tieQueries(7, ptsA, 25))
	})

	t.Run("post-delta", func(t *testing.T) {
		src := NewShared(NewNearestNeighbor())
		for i := 0; i < len(ptsA); i += 32 {
			end := i + 32
			if end > len(ptsA) {
				end = len(ptsA)
			}
			src.AddBatch(ptsA[i:end])
		}
		var cursor uint64
		dst := NewKMeans()
		for {
			delta, seq := src.DeltaSince(cursor)
			if len(delta) == 0 {
				break
			}
			dst.AddBatch(delta)
			cursor = seq
		}
		if got, want := dst.TrainingSize(), successCount(ptsA); got != want {
			t.Fatalf("delta-applied KB holds %d successes, want %d", got, want)
		}
		assertOracle(t, "delta-kmeans", dst, tieQueries(8, ptsA, 25))
	})
}

func successCount(pts []Point) int {
	n := 0
	for _, p := range pts {
		if p.Success {
			n++
		}
	}
	return n
}

// TestSharedIndexedReadsUnderConcurrentWrites: snapshot readers traverse
// the immutable KD-forest while a writer keeps inserting and republishing;
// the race detector guards the copy-on-write discipline, and every answer
// must come from some consistent snapshot (non-nil once trained).
func TestSharedIndexedReadsUnderConcurrentWrites(t *testing.T) {
	sh := NewShared(NewNearestNeighbor())
	pts := tiePoints(9, 600)
	sh.AddBatch(pts[:100])
	queries := tieQueries(10, pts, 10)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				x := queries[(i+w)%len(queries)]
				if _, ok := sh.Suggest(x, nil); !ok {
					t.Errorf("trained shared KB abstained")
					return
				}
				sh.RankK(x, 2)
			}
		}(w)
	}
	for i := 100; i < len(pts); i += 16 {
		end := i + 16
		if end > len(pts) {
			end = len(pts)
		}
		sh.AddBatch(pts[i:end])
	}
	close(done)
	wg.Wait()

	// Quiesced: the published snapshot must agree with the brute scan.
	assertOracle(t, "shared-nn", sh, queries)
}
