package synopsis

import (
	"fmt"
	"math"
	"math/rand"
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
// brute scan's bit for bit, with indexResolve the only switch.
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
		t.Fatalf("global forest has %d headed trees and a tail of %d; the test needs ≥2 and a non-empty tail", n, len(s.ex.gidx.tail))
	}
	perFix := 0
	for _, fi := range s.ex.idx {
		perFix += headedTrees(fi)
	}
	if perFix == 0 {
		t.Fatal("no per-fix tree keeps a head: filtered Suggest would not exercise search1's skip")
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
			for _, j := range []int{0, 3, headDirs - 1} {
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
	// it (per-fix search1), and behind Shared's published clone.
	km := NewKMeans()
	km.AddBatch(pts)
	assertOracle(t, "headed-kmeans", km, queries[:24])
	sh := NewShared(NewNearestNeighbor())
	sh.AddBatch(pts[:3000])
	for i := 3000; i < len(pts); i += 8 {
		sh.AddBatch(pts[i : i+8])
	}
	assertOracle(t, "headed-shared", sh, queries[:24])

	// Not vacuous: against the bounds a finished search holds, the head of
	// the big tree rules out most of its rows.
	big := s.ex.gidx.trees[len(s.ex.gidx.trees)-1]
	x := queries[len(stored)]
	g := s.ex.nearestPerFix(x)
	hq := big.head.query(x)
	skipped := 0
	for i := range big.ords {
		if big.head.beyond(int32(i), &hq, g.d[big.tags[i]]) {
			skipped++
		}
	}
	if skipped < len(big.ords)/2 {
		t.Errorf("head rules out %d of %d rows on clustered data; expected most", skipped, len(big.ords))
	}
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

func assertOrthonormal(t *testing.T, b *headBasis) {
	t.Helper()
	for i := 0; i < headDirs; i++ {
		for j := 0; j <= i; j++ {
			dot := 0.0
			for d := 0; d < b.width; d++ {
				dot += b.dirs[d*headDirs+i] * b.dirs[d*headDirs+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if !(math.Abs(dot-want) <= headOrthoTol) {
				t.Fatalf("directions %d·%d = %v, want %v within %v", i, j, dot, want, headOrthoTol)
			}
		}
	}
}

// FuzzHeadBoundIsLower: for a basis fitted to a random sample, a random row
// and a random query — near the row, far from it, equal to it, shorter or
// longer than it, displaced from it along a direction of the basis itself
// (where the head sees the whole distance), at any magnitude — the head never rules the row out
// against a limit equal to the distance euclidean computes for it. That is
// the whole safety argument of the skip test: head distance minus slack
// never exceeds the distance the scan would have accepted.
func FuzzHeadBoundIsLower(f *testing.F) {
	f.Add(int64(1), uint8(104), 1.0, 1.0, uint8(104), uint8(0))
	f.Add(int64(2), uint8(40), 1e6, 1e-6, uint8(12), uint8(1))
	f.Add(int64(3), uint8(9), 1e-9, 1e9, uint8(200), uint8(2))
	f.Add(int64(4), uint8(64), 3.0, 0.0, uint8(64), uint8(3))
	f.Add(int64(5), uint8(104), 20.0, 0.37, uint8(104), uint8(4))
	f.Add(int64(6), uint8(30), 1e3, 1e-7, uint8(31), uint8(4))
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
		sample := make([]float64, headSample*w)
		for i := range sample {
			sample[i] = rng.NormFloat64() * float64(1+i%w%5)
		}
		b := fitHeadBasis(sample, headSample, w)
		if b == nil {
			t.Skip()
		}
		assertOrthonormal(t, b)
		row := make([]float64, w)
		for d := range row {
			row[d] = rowScale * rng.NormFloat64()
		}
		x := make([]float64, int(queryLen))
		for d := range x {
			switch mode % 5 {
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
					x[d] = row[d] + queryScale*b.dirs[d*headDirs+int(queryLen)%headDirs]
				}
			}
		}
		h := newHead(b, row, 1, w)
		hq := h.query(x)
		limit := euclidean(x, row)
		if h.beyond(0, &hq, limit) {
			t.Fatalf("row at distance %v ruled out against limit %v (seed %d width %d scales %v %v len %d mode %d)",
				limit, limit, seed, w, rowScale, queryScale, queryLen, mode)
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
// store on every eviction. The rebuild must leave one compact tree per fix
// (and one global one) with no tail, and the learner must keep answering
// exactly as the brute scan does while three windows' worth of points pass
// through it.
func TestForgetRebuildsCompactTrees(t *testing.T) {
	const window = 560 // big enough that the rebuilt global tree keeps a head
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
		compact("the global forest", base.ex.gidx)
		for fix, fi := range base.ex.idx {
			compact(fmt.Sprintf("fix %v", fix), fi)
		}
		if at%7 == 0 || at == len(pts) {
			assertOracle(t, "online-nn", s, queries)
		}
	}
	if headedTrees(base.ex.gidx) != 1 {
		t.Error("the rebuilt global tree keeps no head")
	}
	if got, want := base.ex.all[0].X, pts[len(pts)-window].X; &got[0] != &want[0] {
		t.Error("the window does not start at the oldest surviving point")
	}
}
