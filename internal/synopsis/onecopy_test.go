package synopsis

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// vectorsOf deep-copies the vectors of pts: what the caller handed in, kept
// apart from anything a store could touch.
func vectorsOf(pts []Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = append([]float64(nil), p.X...)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertOneCopy checks the storage rule of a store that owns its points:
// every point a tree indexes holds that tree's packed row as its X, capped
// at its own length, and every point (tail included) holds the values its
// caller handed in, bit for bit. want[ord] is the caller's vector of the
// point at ordinal ord.
func assertOneCopy(t *testing.T, name string, e *exemplars, want [][]float64) {
	t.Helper()
	if len(e.all) != len(want) {
		t.Fatalf("%s: the store holds %d points, want %d", name, len(e.all), len(want))
	}
	indexed := 0
	for _, tr := range e.gidx.trees {
		if tr == nil {
			continue
		}
		for i, ord := range tr.ords {
			x, row := e.all[ord].X, tr.row(int32(i))
			if &x[0] != &row[0] || cap(x) != len(x) {
				t.Fatalf("%s: point %d is not its packed row (len %d, cap %d)", name, ord, len(x), cap(x))
			}
			indexed++
		}
	}
	if indexed+len(e.gidx.tail) != len(e.all) {
		t.Fatalf("%s: %d points indexed and %d in the tail, of %d", name, indexed, len(e.gidx.tail), len(e.all))
	}
	for ord, p := range e.all {
		if !sameBits(p.X, want[ord]) {
			t.Fatalf("%s: point %d holds %v, its caller handed in %v", name, ord, p.X, want[ord])
		}
	}
}

// TestIndexedPointsLiveInPackedRows: on each path that builds a tree — a
// forest carry, a bulk load and the rebuild a sliding window forgets down
// to — the store keeps one copy of every indexed vector, the packed row, and
// answers as the brute scan does. The caller's vectors are never written.
func TestIndexedPointsLiveInPackedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := clusteredPoints(rng, 1200)
	caller := vectorsOf(pts)
	queries := jitteredQueries(rng, pts, 8)

	carries := NewNearestNeighbor()
	for i, p := range pts[:kdBlock*11+7] { // slots 0, 1 and 3 filled, a tail of 7
		if i%5 == 0 {
			carries.AddBatch([]Point{p})
		} else {
			carries.Add(p)
		}
		if (i+1)%kdBlock == 0 {
			assertOneCopy(t, "carries", carries.ex, caller[:i+1])
		}
	}
	assertOneCopy(t, "carries", carries.ex, caller[:kdBlock*11+7])
	assertOracle(t, "carries", carries, queries)

	bulk := NewNearestNeighbor()
	bulk.AddBatch(pts[:600]) // one compact headed tree
	if headedTrees(bulk.ex.gidx) != 1 {
		t.Fatal("the bulk load kept no head")
	}
	assertOneCopy(t, "bulk", bulk.ex, caller[:600])
	for _, p := range pts[600:700] {
		bulk.Add(p)
	}
	assertOneCopy(t, "bulk then carries", bulk.ex, caller[:700])
	assertOracle(t, "bulk then carries", bulk, queries)

	const window = 520
	base := NewNearestNeighbor()
	online := NewOnline(base, window)
	for at := 0; at < len(pts); {
		n := 1 + at%60
		if at+n > len(pts) {
			n = len(pts) - at
		}
		online.AddBatch(pts[at : at+n])
		at += n
		assertOneCopy(t, "forget", base.ex, caller[at-base.TrainingSize():at])
	}
	assertOracle(t, "forget", online, queries)

	for i, p := range pts {
		if !sameBits(p.X, caller[i]) {
			t.Fatalf("the caller's vector %d was written", i)
		}
	}
}

// TestClonedStoreKeepsItsPoints: a clone shares its original's arrival list,
// so neither side re-points a point while the other may read it. Readers of
// the clone run the brute-force oracle against its index while the original
// takes forest carries, a bulk load and a forget; the clone's points must
// hold the same vectors before and after, and -race must see no write.
func TestClonedStoreKeepsItsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := clusteredPoints(rng, 1400)
	orig := NewNearestNeighbor()
	for _, p := range pts[:300] {
		orig.Add(p)
	}
	if cap(orig.ex.all) == len(orig.ex.all) {
		t.Fatal("the original's arrival list has no spare room; its next append would not share the clone's array")
	}
	snap := orig.Clone().(*NearestNeighbor)
	held := make([][]float64, len(snap.ex.all))
	for i, p := range snap.ex.all {
		held[i] = p.X
	}
	values := vectorsOf(snap.ex.all)
	queries := jitteredQueries(rng, pts, 6)

	// read runs the oracle over every query once; false on a mismatch.
	read := func() bool {
		for qi, x := range queries {
			g := snap.ex.nearestPerFix(&probe{x: x}, nil)
			for tag, fix := range snap.ex.cls.fixes {
				a, d, ok := snap.ex.bruteNearest(x, fix, nil)
				if ok != g.found[tag] || ok && (math.Float64bits(d) != math.Float64bits(g.d[tag]) || a != snap.ex.all[g.ord[tag]].Action) {
					t.Errorf("q%d, fix %v: indexed (%v, %v) != brute (%v, %v, %v)", qi, fix, g.d[tag], g.found[tag], a, d, ok)
					return false
				}
			}
		}
		return true
	}
	done := make(chan struct{})
	var wg, started sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			ok := read()
			started.Done()
			for ok {
				select {
				case <-done:
					return
				default:
					ok = read()
				}
			}
		}()
	}
	started.Wait() // every reader has read the clone once
	for _, p := range pts[300:700] {
		orig.Add(p)
	}
	orig.AddBatch(pts[700:1400])
	orig.Forget(500)
	for _, p := range pts[:100] {
		orig.Add(p)
	}
	close(done)
	wg.Wait()

	for i, p := range snap.ex.all {
		if &p.X[0] != &held[i][0] || len(p.X) != len(held[i]) || !sameBits(p.X, values[i]) {
			t.Fatalf("the clone's point %d was re-pointed or rewritten", i)
		}
	}
	assertOracle(t, "clone", snap, queries)
	assertOracle(t, "original", orig, queries)
}
