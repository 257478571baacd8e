package synopsis

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"selfheal/internal/catalog"
)

// oracleFixes and the targets t0..t2 are the ones assertOracle's filters
// exclude, so the filters bite on data built from them.
var oracleFixes = []catalog.FixID{
	catalog.FixUpdateStats, catalog.FixMicrorebootEJB,
	catalog.FixRebootAppTier, catalog.FixKillHungQuery,
}

// clusteredPoints builds n successes shaped like real symptom vectors:
// a dozen failure signatures, each a handful of strongly anomalous metrics
// out of ≈100, observed at a jittered severity with a little noise on every
// coordinate. Several signatures share a fix, and widths are ragged around
// 100 so some rows rely on zero-extension.
func clusteredPoints(rng *rand.Rand, n int) []Point {
	const centres = 12
	sig := make([][]float64, centres)
	for c := range sig {
		sig[c] = make([]float64, 104)
		for k := 0; k < 8; k++ {
			sig[c][rng.Intn(104)] = 4 + 6*rng.Float64()
		}
	}
	out := make([]Point, n)
	for i := range out {
		c := rng.Intn(centres)
		x := make([]float64, []int{96, 100, 104}[rng.Intn(3)])
		scale := 1 + 0.1*rng.NormFloat64()
		for d := range x {
			x[d] = sig[c][d]*scale + 0.05*rng.NormFloat64()
		}
		out[i] = Point{
			X:       x,
			Action:  Action{Fix: oracleFixes[c%len(oracleFixes)], Target: fmt.Sprintf("t%d", rng.Intn(3))},
			Success: true,
		}
	}
	return out
}

// twin returns p under another target with its vector passed through f: a
// neighbour whose only visible difference from p is the action, so a wrong
// tie-break or a wrongly skipped row changes the answer.
func twin(p Point, target string, f func(x []float64)) Point {
	x := append([]float64(nil), p.X...)
	if f != nil {
		f(x)
	}
	return Point{X: x, Action: Action{Fix: p.Action.Fix, Target: target}, Success: true}
}

// headedTrees counts the trees of a forest that keep a head.
func headedTrees(fi *fixIndex) int {
	n := 0
	for _, t := range fi.trees {
		if t != nil && t.head != nil {
			n++
		}
	}
	return n
}

// TestHeadedForestMatchesBruteAtRealWidth: the acceptance property at the
// width the system really has. A bulk load plus a run of single inserts
// leaves at least two headed trees, unheaded small ones and a tail; the
// points include exact duplicates at different ordinals, neighbours one ulp
// and 1e-13 apart, and all-zero vectors; the queries include stored points
// (limit 0), and vectors shorter and longer than the trees' stride. Every
// Suggest (with and without filters), RankK and Rank answer must equal the
// brute scan's bit for bit, with indexResolve the only switch, and every
// Nearest of the exported KD index the exported brute-force index's. The
// subtests repeat that on the stores the node boxes and class sets could
// get wrong: a class with one far exemplar, more classes than a class set
// has bits, NaN and infinite coordinates, equal-distance twins across a
// split, a forest of carries and the compact store a sliding window
// forgets down to.
func TestHeadedForestMatchesBruteAtRealWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := clusteredPoints(rng, 4096)
	// Specials, spread through both the bulk-loaded and the inserted part.
	var stored [][]float64
	for _, at := range []int{10, 700, 2900, 3100, 3900, 4090} {
		p := pts[at]
		pts[at+1] = twin(p, "t1", nil) // exact duplicate, later ordinal
		pts[at+2] = twin(p, "t2", func(x []float64) { x[3] = math.Nextafter(x[3], math.Inf(1)) })
		pts[at+3] = twin(p, "t0", func(x []float64) { x[40] += 1e-13 })
		pts[at+4] = Point{X: make([]float64, 100), Action: Action{Fix: oracleFixes[at%4], Target: "t1"}, Success: true}
		stored = append(stored, p.X, pts[at+2].X, pts[at+3].X, pts[at+4].X)
	}

	s := NewNearestNeighbor()
	s.AddBatch(pts[:3000])
	for _, p := range pts[3000:] {
		s.Add(p)
	}
	if n := headedTrees(s.ex.gidx); n < 2 || len(s.ex.gidx.tail) == 0 {
		t.Fatalf("the forest has %d headed trees and a tail of %d; the test needs ≥2 and a non-empty tail", n, len(s.ex.gidx.tail))
	}
	// assertOracle's derived filters exclude each query's own answer, so a
	// filtered Suggest re-searches the forest past that row: some stored
	// query's answer must sit in a headed tree and some in the tail, or the
	// accept tests behind a head and on the tail go unexercised.
	where := map[int]string{}
	for _, tr := range s.ex.gidx.trees {
		if tr != nil && tr.head != nil {
			for _, ord := range tr.ords {
				where[ord] = "headed"
			}
		}
	}
	for _, ord := range s.ex.gidx.tail {
		where[ord] = "tail"
	}
	answered := map[string]bool{}
	for _, x := range stored {
		sug, _ := s.Suggest(x, nil)
		g := s.ex.nearestPerFix(&probe{x: x}, nil)
		answered[where[g.ord[s.ex.cls.byFix[sug.Action.Fix]]]] = true
	}
	if !answered["headed"] || !answered["tail"] {
		t.Fatalf("stored queries are answered from %v; the test needs a headed tree and the tail", answered)
	}

	queries := stored
	for i := 0; i < 60; i++ {
		x := append([]float64(nil), pts[rng.Intn(len(pts))].X...)
		for d := range x {
			x[d] += 0.05 * rng.NormFloat64()
		}
		switch i % 4 {
		case 1:
			x = x[:80] // shorter than the stride
		case 2:
			x = append(x, make([]float64, 120-len(x))...) // longer: zeros…
			x[110], x[119] = 0.3, -0.2                    // …and coordinates no row has
		}
		queries = append(queries, x)
	}
	// Queries displaced from a duplicated stored point along a direction of
	// a tree's own basis: the head then sees the whole distance, the point
	// and its twin tie, and only the slack keeps whichever is scanned second
	// from being ruled out by rounding.
	for _, tr := range s.ex.gidx.trees {
		if tr == nil || tr.head == nil {
			continue
		}
		b := tr.head.basis
		for k := 0; k < len(stored); k += 4 {
			for _, j := range []int{0, 3, headDirs - 1, headDirs, headAllDirs - 1} {
				for _, eps := range []float64{1e-3, 3} {
					x := make([]float64, b.width)
					for d := range x {
						x[d] = feature(stored[k], d) + eps*b.dirs[d*headDirs+j]
					}
					queries = append(queries, x)
				}
			}
		}
	}
	assertOracle(t, "headed-nn", s, queries)

	// The same store behind the learners that only resolve targets through
	// it (one group traversal per read), and behind Shared's published clone.
	km := NewKMeans()
	km.AddBatch(pts)
	assertOracle(t, "headed-kmeans", km, queries[:24])
	// Two lock-free readers beside the writer whose carries build headed
	// trees under them (the race detector watches the probes and the
	// copy-on-write forest); quiesced, the published clone answers as the
	// brute scan does.
	sh := NewShared(NewNearestNeighbor())
	sh.AddBatch(pts[:3000])
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f := ExcludeActions(Action{Fix: catalog.FixUpdateStats, Target: "t0"})
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				x := queries[i%len(queries)]
				if _, ok := sh.Suggest(x, f); !ok {
					t.Errorf("reader %d: a trained knowledge base abstained", r)
					return
				}
				sh.RankK(x, 3)
			}
		}(r)
	}
	for i := 3000; i < len(pts); i += 8 {
		sh.AddBatch(pts[i : i+8])
	}
	close(done)
	wg.Wait()
	assertOracle(t, "headed-shared", sh, queries[:24])

	// Not vacuous: against the bounds a finished search holds, the head of
	// the big tree rules out most of its rows.
	big := s.ex.gidx.trees[len(s.ex.gidx.trees)-1]
	x := queries[len(stored)]
	pr := &probe{x: x}
	g := s.ex.nearestPerFix(pr, nil)
	hq := pr.head(big.head)
	skipped := 0
	for i := range big.ords {
		if big.head.beyond(int32(i), &hq, g.d[big.tags[i]]) {
			skipped++
		}
	}
	if skipped < len(big.ords)/2 {
		t.Errorf("head rules out %d of %d rows on clustered data; expected most", skipped, len(big.ords))
	}
	assertIndexOracle(t, "headed-index", pts, queries[:12])

	t.Run("skewed-class", func(t *testing.T) { testSkewedClass(t, rng) })
	t.Run("many-classes", func(t *testing.T) { testManyClasses(t, rng) })
	t.Run("nan-inf", func(t *testing.T) { testNaNInf(t, rng) })
	t.Run("split-twins", func(t *testing.T) { testSplitTwins(t, rng) })
	t.Run("carries-then-forget", func(t *testing.T) { testCarriesThenForget(t, rng) })
}

// jitteredQueries returns n copies of random points of pts with a little
// noise on every coordinate.
func jitteredQueries(rng *rand.Rand, pts []Point, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := append([]float64(nil), pts[rng.Intn(len(pts))].X...)
		for d := range x {
			x[d] += 0.05 * rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

// bulkThenSingles builds a nearest-neighbour learner over pts: the first
// two thirds as one bulk load (one compact headed tree), the rest one by
// one (a forest and a tail on top).
func bulkThenSingles(pts []Point) *NearestNeighbor {
	s := NewNearestNeighbor()
	s.AddBatch(pts[:len(pts)*2/3])
	for _, p := range pts[len(pts)*2/3:] {
		s.Add(p)
	}
	return s
}

// assertIndexOracle: the exported KD index over pts — one headed tree when
// pts are many and wide enough — answers Nearest as the exported brute-force
// index does, ordinal for ordinal and distance bit for bit (NaN included),
// for bounded and unbounded k, with and without an accept filter.
func assertIndexOracle(t *testing.T, name string, pts []Point, queries [][]float64) {
	t.Helper()
	kd, brute := NewKDTreeIndex(pts), NewBruteForceIndex(pts)
	if len(pts) >= headMinRows && kd.(*kdIndex).t.head == nil {
		t.Fatalf("%s: the KD index over %d points keeps no head", name, len(pts))
	}
	accepts := []func(int) bool{nil, func(ord int) bool { return ord%3 != 0 }}
	for qi, x := range queries {
		ks := []int{1, 3, 17}
		if qi < 2 {
			ks = append(ks, -1, len(pts)+1) // every point, sorted: dear, so on two queries
		}
		for _, k := range ks {
			for ai, accept := range accepts {
				got, want := kd.Nearest(x, k, accept), brute.Nearest(x, k, accept)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = got[i].Ord == want[i].Ord && math.Float64bits(got[i].Dist) == math.Float64bits(want[i].Dist)
				}
				if !same {
					t.Fatalf("%s: Nearest(q%d, k=%d, accept %d): indexed %v, brute %v", name, qi, k, ai, got, want)
				}
			}
		}
	}
}

// testSkewedClass: one class holds a single exemplar far from everything.
// Its bound stays loose for the whole search, so the nodes above it are
// held to that bound while every other node is skipped on the tight bounds
// of the classes it really holds — the case the per-node class sets exist
// for, and the one a shared bound would answer slowly, not wrongly.
func testSkewedClass(t *testing.T, rng *rand.Rand) {
	pts := clusteredPoints(rng, 1800)
	far := make([]float64, 104)
	for d := range far {
		far[d] = 40
	}
	pts[700] = Point{X: far, Action: Action{Fix: catalog.FixFullRestart, Target: "t1"}, Success: true}
	s := bulkThenSingles(pts)
	big := s.ex.gidx.trees[len(s.ex.gidx.trees)-1]
	if big.head == nil || big.masks == nil {
		t.Fatal("the bulk-loaded tree keeps no head or no class sets")
	}
	queries := append(jitteredQueries(rng, pts, 24), far, pts[3].X)
	assertOracle(t, "skewed-nn", s, queries)
	for _, x := range queries[:4] {
		if r := s.Rank(x); len(r) != 5 {
			t.Fatalf("Rank names %d fixes, want all 5 with the lone far exemplar's", len(r))
		}
	}
	assertIndexOracle(t, "skewed-index", pts, queries[:6])
}

// testManyClasses: more classes than a node's class set has bits. The trees
// then keep no class sets — decided when they are built — and every node is
// held to the shared bound.
func testManyClasses(t *testing.T, rng *rand.Rand) {
	pts := clusteredPoints(rng, 2100)
	for i := range pts {
		if c := rng.Intn(70); c >= len(oracleFixes) {
			pts[i].Action.Fix = catalog.FixID(200 + c)
		}
	}
	s := bulkThenSingles(pts)
	if n := s.ex.cls.len(); n <= 64 {
		t.Fatalf("the store holds %d classes; the test needs more than 64", n)
	}
	big := s.ex.gidx.trees[len(s.ex.gidx.trees)-1]
	if big.head == nil || big.masks != nil {
		t.Fatal("the tree over more than 64 classes must keep a head and no class sets")
	}
	assertOracle(t, "many-classes-nn", s, jitteredQueries(rng, pts, 16))
}

// testNaNInf: rows and queries with NaN and infinite coordinates. A
// distance that is NaN or infinite is never a nearest neighbour's — the
// brute scan's strict d < best from +Inf says so — so such rows are never
// answers, must not hide the finite rows filed around them (a NaN head
// coordinate opens its box, a NaN split prunes nothing), and a fix whose
// every exemplar is one drops out of the ranking on both paths.
func testNaNInf(t *testing.T, rng *rand.Rand) {
	pts := clusteredPoints(rng, 1500)
	queries := jitteredQueries(rng, pts, 16) // finite: taken before the poison goes in
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 24; i++ {
		at := rng.Intn(len(pts))
		x := append([]float64(nil), pts[at].X...)
		x[rng.Intn(len(x))] = poison[i%3]
		if i%8 == 7 {
			for d := range x {
				x[d] = math.NaN()
			}
		}
		pts[at].X = x
	}
	for i, at := range []int{100, 1100, 1450} { // a fix with no finite exemplar
		x := append([]float64(nil), pts[at].X...)
		x[i] = poison[i]
		pts[at] = Point{X: x, Action: Action{Fix: catalog.FixRebuildIndex, Target: "t0"}, Success: true}
	}
	s := bulkThenSingles(pts)
	if headedTrees(s.ex.gidx) == 0 {
		t.Fatal("no headed tree holds the poisoned rows")
	}
	for i, v := range poison {
		x := append([]float64(nil), queries[i]...)
		x[5+i] = v
		queries = append(queries, x)
	}
	assertOracle(t, "nan-inf-nn", s, queries)
	for _, sug := range s.Rank(queries[0]) {
		if sug.Action.Fix == catalog.FixRebuildIndex {
			t.Fatal("a fix with no finite exemplar is ranked")
		}
	}
	if r := s.Rank(queries[len(queries)-3]); len(r) != 0 {
		t.Fatalf("a NaN query ranks %v; every distance from it is NaN", r)
	}
	assertIndexOracle(t, "nan-inf-index", pts, queries[len(queries)-5:])
}

// testSplitTwins: two exemplars of one fix at bitwise-equal distance from
// the query, filed on opposite sides of the tree's root split, the
// later arrival on the side the search enters first. The earlier one wins in
// the brute scan; the index must still cross the split for it with the bound
// already at exactly its distance, and then prefer it.
func testSplitTwins(t *testing.T, rng *rand.Rand) {
	pts := clusteredPoints(rng, 2000)
	for i := range pts {
		pts[i].X = append(pts[i].X, make([]float64, 104-len(pts[i].X))...)
	}
	probeTree := NewNearestNeighbor()
	probeTree.AddBatch(pts)
	root := probeTree.ex.gidx.trees[len(probeTree.ex.gidx.trees)-1]
	b, j, split := root.head.basis, int(root.nodes[0].dim), root.nodes[0].split
	// k is the raw coordinate direction j leans on most: stepping along it
	// moves a point's j-th head coordinate by the step times lean.
	k, lean := 0, 0.0
	for d := 0; d < b.width; d++ {
		if v := math.Abs(dirCoord(b, j, d)); v > lean {
			k, lean = d, v
		}
	}
	const step = 0.25
	var centres [][]float64
	for pair, at := range []int{40, 1300} {
		// The centre is a stored point slid along direction j until its j-th
		// head coordinate is the split, then rounded in coordinate k so that
		// adding and taking away the step there is exact.
		var head [headDirs]float64
		b.project(pts[at].X, 0, headDirs, head[:])
		c := append([]float64(nil), pts[at].X...)
		for d := range c {
			c[d] += (split - head[j]) * dirCoord(b, j, d)
		}
		c[k] = math.Round(c[k]*1024) / 1024
		lo, hi := append([]float64(nil), c...), append([]float64(nil), c...)
		lo[k], hi[k] = c[k]-step, c[k]+step
		first, second := lo, hi // by arrival
		if pair == 1 {
			first, second = hi, lo
		}
		fix := pts[at].Action.Fix
		pts = append(pts,
			Point{X: first, Action: Action{Fix: fix, Target: "t1"}, Success: true},
			Point{X: second, Action: Action{Fix: fix, Target: "t2"}, Success: true})
		if euclidean(c, lo) != euclidean(c, hi) || euclidean(c, lo) != step {
			t.Fatalf("pair %d: the twins lie at %v and %v from their centre, want exactly %v", pair, euclidean(c, lo), euclidean(c, hi), step)
		}
		centres = append(centres, c)
	}
	s := NewNearestNeighbor()
	s.AddBatch(pts)
	tr := s.ex.gidx.trees[len(s.ex.gidx.trees)-1]
	mid := tr.nodes[tr.nodes[0].right].lo
	side := make(map[int]bool) // ordinal → right of the root split
	for i, ord := range tr.ords {
		side[ord] = int32(i) >= mid
	}
	for pair, c := range centres {
		first, second := len(pts)-4+2*pair, len(pts)-3+2*pair
		if side[first] == side[second] {
			t.Fatalf("pair %d: both twins lie on one side of the root split; the test needs them apart", pair)
		}
		sug, ok := s.Suggest(c, nil)
		if !ok || sug.Action != pts[first].Action {
			t.Fatalf("pair %d: Suggest answers %v, the earlier twin is %v", pair, sug.Action, pts[first].Action)
		}
		f := ExcludeActions(pts[first].Action)
		if sug, ok := s.Suggest(c, f); !ok || sug.Action != pts[second].Action {
			t.Fatalf("pair %d: with the earlier twin excluded Suggest answers %v, the later twin is %v", pair, sug.Action, pts[second].Action)
		}
	}
	// One of the two pairs has its later twin on the side a search from the
	// centre enters first (the centres sit on the split; which side that is
	// is rounding's choice, the same for both).
	assertOracle(t, "twins-nn", s, append(centres, pts[len(pts)-1].X, pts[len(pts)-4].X))
	assertIndexOracle(t, "twins-index", pts, centres)
}

// testCarriesThenForget: a sliding-window learner grown one observation at
// a time, so its headed trees are the forest's own carries (each fits its
// own basis), then pushed past its window, so every further observation
// rebuilds the store as one compact tree.
func testCarriesThenForget(t *testing.T, rng *rand.Rand) {
	const window = 1700
	pts := clusteredPoints(rng, window+40)
	base := NewNearestNeighbor()
	s := NewOnline(base, window)
	for _, p := range pts[:1600] { // 1024 + 512 + 64
		s.Add(p)
	}
	bases := map[*headBasis]bool{}
	for _, tr := range base.ex.gidx.trees {
		if tr != nil && tr.head != nil {
			if len(tr.ords) < headMinRows {
				t.Fatalf("a tree of %d rows keeps a head", len(tr.ords))
			}
			bases[tr.head.basis] = true
		}
	}
	if len(bases) < 2 {
		t.Fatalf("single inserts left %d headed trees with a basis of their own; the test needs 2", len(bases))
	}
	queries := jitteredQueries(rng, pts, 16)
	assertOracle(t, "carries-online-nn", s, queries)
	for _, p := range pts[1600:] {
		s.Add(p)
	}
	if base.TrainingSize() != window || headedTrees(base.ex.gidx) != 1 || len(base.ex.gidx.tail) != 0 {
		t.Fatalf("past its window the store holds %d points in %d headed trees and a tail of %d, want %d in one compact tree",
			base.TrainingSize(), headedTrees(base.ex.gidx), len(base.ex.gidx.tail), window)
	}
	assertOracle(t, "forgot-online-nn", s, queries)
}

// TestRankDeficientSampleGivesValidOrNoHead: a sample that spans fewer
// directions than a head holds (every row identical; every row on one line)
// must yield no head or an orthonormal one — and, either way, the brute
// scan's answers.
func TestRankDeficientSampleGivesValidOrNoHead(t *testing.T) {
	const n, w = 640, 40
	rng := rand.New(rand.NewSource(4))
	dir := make([]float64, w)
	for d := range dir {
		dir[d] = rng.NormFloat64()
	}
	same := make([]float64, w)
	copy(same, dir)
	cases := map[string]func(i int) []float64{
		"identical": func(int) []float64 { return same },
		"one-line": func(i int) []float64 {
			x := make([]float64, w)
			for d := range x {
				x[d] = dir[d] * float64(i%97-40) / 7
			}
			return x
		},
		"all-zero": func(int) []float64 { return make([]float64, w) },
	}
	for name, row := range cases {
		t.Run(name, func(t *testing.T) {
			pts := make([]Point, n)
			xs := make([]float64, 0, n*w)
			for i := range pts {
				pts[i] = Point{X: row(i), Action: Action{Fix: oracleFixes[i%4], Target: fmt.Sprintf("t%d", i%3)}, Success: true}
				xs = append(xs, pts[i].X...)
			}
			if b := fitHeadBasis(xs, n, w); b != nil {
				assertOrthonormal(t, b)
			}
			s := NewNearestNeighbor()
			s.AddBatch(pts)
			queries := [][]float64{row(0), row(5), dir, make([]float64, w)}
			for i := 0; i < 6; i++ {
				x := append([]float64(nil), row(i*31)...)
				x[i] += 0.5
				queries = append(queries, x)
			}
			assertOracle(t, name, s, queries)
		})
	}
}

// dirCoord returns coordinate d of direction k of a basis.
func dirCoord(b *headBasis, k, d int) float64 { return b.dirs[(k/8*b.width+d)*8+k%8] }

// assertOrthonormal: the first headDirs directions, which a head cannot do
// without, are orthonormal; each later one is orthogonal to every other and
// either a unit vector or, where the fit stopped short, zero.
func assertOrthonormal(t *testing.T, b *headBasis) {
	t.Helper()
	for i := 0; i < headAllDirs; i++ {
		for j := 0; j <= i; j++ {
			dot := 0.0
			for d := 0; d < b.width; d++ {
				dot += dirCoord(b, i, d) * dirCoord(b, j, d)
			}
			want := 0.0
			if i == j && (i < headDirs || dot != 0) {
				want = 1
			}
			if !(math.Abs(dot-want) <= headOrthoTol) {
				t.Fatalf("directions %d·%d = %v, want %v within %v", i, j, dot, want, headOrthoTol)
			}
		}
	}
}

// FuzzHeadBoundIsLower: for a tree of random rows, the basis it fits to
// them and a random query — near one of the rows, far from it, equal to it,
// shorter or longer than it, displaced from it along a direction of the
// basis itself (where the head sees the whole distance), at any magnitude —
// the whole chain of bounds holds in floating point: every
// node's box sum is no larger than the first-stage head sum of every row
// under it, and neither that sum nor the cumulative one over both stages
// rules a row out against a limit equal to the distance euclidean computes
// for it. That is the whole safety argument of the skip tests: a box skips
// nothing beyond would have kept, and head distance minus slack never
// exceeds the distance the scan would have accepted.
func FuzzHeadBoundIsLower(f *testing.F) {
	f.Add(int64(1), uint8(104), 1.0, 1.0, uint8(104), uint8(0))
	f.Add(int64(2), uint8(40), 1e6, 1e-6, uint8(12), uint8(1))
	f.Add(int64(3), uint8(9), 1e-9, 1e9, uint8(200), uint8(2))
	f.Add(int64(4), uint8(64), 3.0, 0.0, uint8(64), uint8(3))
	f.Add(int64(5), uint8(104), 20.0, 0.37, uint8(104), uint8(4))
	f.Add(int64(6), uint8(30), 1e3, 1e-7, uint8(31), uint8(4))
	f.Add(int64(7), uint8(104), 20.0, 0.37, uint8(109), uint8(5))
	f.Add(int64(8), uint8(33), 1.0, 1e-3, uint8(33), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, rowScale, queryScale float64, queryLen, mode uint8) {
		w := int(width)
		if w <= headDirs {
			t.Skip()
		}
		if math.IsNaN(rowScale) || math.IsInf(rowScale, 0) || math.IsNaN(queryScale) || math.IsInf(queryScale, 0) ||
			math.Abs(rowScale) > 1e100 || math.Abs(queryScale) > 1e100 {
			t.Skip() // squares must stay finite for the distance to mean anything
		}
		rng := rand.New(rand.NewSource(seed))
		// Row 0 is the one the query is placed against; the rest share its
		// scale, a third of them huddled around it so that leaves near the
		// query hold more than one candidate, a few ragged, and one NaN, whose
		// sums compare false and bind nothing (an infinite row would make the
		// slack infinite and the test vacuous).
		pts := make([]Point, headMinRows)
		for i := range pts {
			x := make([]float64, w-i%3*(i%7/6))
			for d := range x {
				x[d] = rowScale * rng.NormFloat64()
				if i%3 == 1 && d < len(pts[0].X) {
					x[d] = pts[0].X[d] + 1e-3*x[d]
				}
			}
			pts[i] = Point{X: x}
		}
		pts[17].X[w/2] = math.NaN()
		ords := make([]int, len(pts))
		for i := range ords {
			ords[i] = i
		}
		tr := buildKD(pts, ords)
		h := tr.head
		if h == nil {
			t.Skip() // rows with no spread a fit can see: all zero, or squares that underflow
		}
		b := h.basis
		assertOrthonormal(t, b)
		row := pts[0].X
		x := make([]float64, int(queryLen))
		for d := range x {
			switch mode % 6 {
			case 0: // unrelated to the row
				x[d] = queryScale * rng.NormFloat64()
			case 1: // the row itself, as far as the lengths allow
				x[d] = feature(row, d)
			case 2: // a hair off the row
				x[d] = feature(row, d) + 1e-13*queryScale*rng.NormFloat64()
			case 3: // the row plus an offset of the query's own scale
				x[d] = feature(row, d) + queryScale
			case 4: // displaced along a basis direction: the head sees it all
				if d < w {
					x[d] = row[d] + queryScale*dirCoord(b, int(queryLen)%headDirs, d)
				}
			case 5: // along a second-stage direction: only the cumulative sum does
				if d < w {
					x[d] = row[d] + queryScale*dirCoord(b, headDirs+int(queryLen)%headTailDirs, d)
				}
			}
		}
		hq := (&probe{x: x}).head(h)
		where := func(i int32) string {
			return fmt.Sprintf("row %d (seed %d width %d scales %v %v len %d mode %d)", tr.ords[i], seed, w, rowScale, queryScale, queryLen, mode)
		}
		for ni, n := range tr.nodes {
			box := h.boxSum(int32(ni), &hq)
			for i := n.lo; i < n.hi; i++ {
				if sum := h.rowSum(i, &hq); box > sum {
					t.Fatalf("box of node %d sums to %v, over the %v of its own %s", ni, box, sum, where(i))
				}
			}
		}
		for i := range tr.ords {
			i := int32(i)
			limit := euclidean(x, tr.row(i))
			if sum := h.rowSum(i, &hq); sum > hq.over(limit) || sum+h.tailSum(i, &hq) > hq.over(limit) {
				t.Fatalf("head sums %v then %v rule out %s at distance %v: over %v",
					sum, sum+h.tailSum(i, &hq), where(i), limit, hq.over(limit))
			}
			if h.beyond(i, &hq, limit) {
				t.Fatalf("%s at distance %v ruled out against that very limit", where(i), limit)
			}
		}
	})
}

// TestEuclideanMatchesFeatureLoopBitwise pins the prefix/tail euclidean —
// and euclideanUnder, whenever it answers — to the loop it replaced, which
// read every coordinate of both vectors through feature().
func TestEuclideanMatchesFeatureLoopBitwise(t *testing.T) {
	reference := func(a, b []float64) float64 {
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		s := 0.0
		for i := 0; i < n; i++ {
			d := feature(a, i) - feature(b, i)
			s += d * d
		}
		return math.Sqrt(s)
	}
	rng := rand.New(rand.NewSource(8))
	vec := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		return x
	}
	lengths := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 3}, {4, 4}, {7, 7}, {104, 104}, {104, 96}, {96, 104}, {5, 13}, {13, 5}, {104, 120}}
	for _, l := range lengths {
		for rep := 0; rep < 50; rep++ {
			a, b := vec(l[0]), vec(l[1])
			want := reference(a, b)
			if got := euclidean(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("euclidean over lengths %v: %v, the feature loop gives %v", l, got, want)
			}
			for _, limit := range []float64{math.Inf(1), want, math.Nextafter(want, 0), want / 2, 0} {
				got, ok := euclideanUnder(a, b, limit)
				if ok && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("euclideanUnder(%v) over lengths %v: %v, the feature loop gives %v", limit, l, got, want)
				}
				if !ok && !(want > limit) {
					t.Fatalf("euclideanUnder(%v) over lengths %v gave up on a point at %v", limit, l, want)
				}
			}
		}
	}
}

// TestForgetRebuildsCompactTrees: a sliding-window learner rebuilds its
// store on every eviction. The rebuild must leave one compact tree holding
// every fix's exemplars and no tail, and the learner must keep answering
// exactly as the brute scan does while three windows' worth of points pass
// through it.
func TestForgetRebuildsCompactTrees(t *testing.T) {
	const window = 560 // big enough that the rebuilt tree keeps a head
	rng := rand.New(rand.NewSource(23))
	pts := clusteredPoints(rng, 4*window)
	for i := range pts {
		pts[i].X = pts[i].X[:24]
	}
	base := NewNearestNeighbor()
	s := NewOnline(base, window)
	s.AddBatch(pts[:window])
	queries := make([][]float64, 12)
	for i := range queries {
		queries[i] = pts[rng.Intn(len(pts))].X
	}
	for at := window; at < len(pts); {
		step := 40
		if at%3 == 0 {
			step = 1 // single Adds evict too
		}
		if at+step > len(pts) {
			step = len(pts) - at
		}
		if step == 1 {
			s.Add(pts[at])
		} else {
			s.AddBatch(pts[at : at+step])
		}
		at += step
		if base.TrainingSize() != window {
			t.Fatalf("after %d points the window holds %d, want %d", at, base.TrainingSize(), window)
		}
		compact := func(name string, fi *fixIndex) {
			trees := 0
			for _, tr := range fi.trees {
				if tr != nil {
					trees++
				}
			}
			if trees != 1 || len(fi.tail) != 0 {
				t.Fatalf("after %d points %s has %d trees and a tail of %d, want one compact tree", at, name, trees, len(fi.tail))
			}
		}
		compact("the forest", base.ex.gidx)
		// Every fix's exemplars are in that one tree, under the fix's tag.
		tagged := map[int32]int{}
		for _, tr := range base.ex.gidx.trees {
			if tr != nil {
				for _, tag := range tr.tags {
					tagged[tag]++
				}
			}
		}
		stored := map[int32]int{}
		for _, tag := range base.ex.fixOf {
			stored[tag]++
		}
		for tag, n := range stored {
			if tagged[tag] != n {
				t.Fatalf("after %d points fix %v has %d exemplars and %d rows tagged with it", at, base.ex.cls.fixes[tag], n, tagged[tag])
			}
		}
		if at%7 == 0 || at == len(pts) {
			assertOracle(t, "online-nn", s, queries)
		}
	}
	if headedTrees(base.ex.gidx) != 1 {
		t.Error("the rebuilt tree keeps no head")
	}
	// The window starts at the oldest surviving point, and every survivor
	// holds its caller's values in the rebuilt tree's packed row.
	assertOneCopy(t, "the rebuilt window", base.ex, vectorsOf(pts[len(pts)-window:]))
}
