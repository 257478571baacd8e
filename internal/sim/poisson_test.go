package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// pinnedLambdas cross every branch of the sampler: no draw, a rate that
// draws almost only zeros, small and mid rates, both sides of the λ = 30
// switch to the normal approximation, and a large rate.
var pinnedLambdas = []float64{0, 1e-9, 0.5, 1, 7.3, 29.999, 30, 30.0001, 250}

// rotating is a rate sequence of 41 values, 38 of them at or below 30: a
// sampler that caches per rate meets more rates than it holds, and a
// per-stream table is rebuilt on every draw.
func rotating(i int) float64 { return 0.25 + 0.8*float64(i%41) }

// diurnal moves every class's rate on every tick, as a diurnal or
// drifting workload does.
func diurnal(t, c int) float64 {
	return []float64{9, 3, 2}[c] * (1 + 0.25*math.Sin(float64(t)/300))
}

func put(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// streamDigest hashes n draws of one PoissonStream at rate(i).
func streamDigest(n int, rate func(i int) float64) uint64 {
	g := NewRNG(1)
	s := g.PoissonStream()
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		put(h, uint64(s.Sample(rate(i))))
	}
	return h.Sum64()
}

// replicatedDigest hashes ticks of three arrival classes drawn the way
// the replicated target draws them: per class a Poisson count at its rate
// from the class's own stream, then the demand noise, all from one RNG.
func replicatedDigest(ticks int, rate func(t, c int) float64) uint64 {
	g := NewRNG(1)
	streams := []PoissonStream{g.PoissonStream(), g.PoissonStream(), g.PoissonStream()}
	h := fnv.New64a()
	for t := 0; t < ticks; t++ {
		for c := range streams {
			put(h, uint64(streams[c].Sample(rate(t, c))))
			put(h, math.Float64bits(g.Normal(0, 0.03)))
		}
	}
	return h.Sum64()
}

// TestPoissonDrawsPinned pins every Poisson draw, not only the mean: a
// change to the sampler that moves one draw fails here, next to the
// sampler, instead of in a campaign digest far away. The digests were
// recorded when a per-RNG cache of 32 rate tables served the replicated
// target; the rotating sequences evicted from that cache.
func TestPoissonDrawsPinned(t *testing.T) {
	want := map[string]uint64{
		"stream/0":            0xbb2c88d651a68b25,
		"stream/1e-09":        0xbb2c88d651a68b25,
		"stream/0.5":          0xf591f83855577160,
		"stream/1":            0x934de69741777d4c,
		"stream/7.3":          0x0eccf0132384509e,
		"stream/29.999":       0x0b9456589882df33,
		"stream/30":           0xfcd108306675df74,
		"stream/30.0001":      0x1426a7fcd7b7d401,
		"stream/250":          0x522b5aff272af816,
		"stream/rotating":     0x7a37a2f4c8e4ed20,
		"replicated/0":        0x20e57cdd47c69dfa,
		"replicated/1e-09":    0xe4800da5e2e3e54f,
		"replicated/0.5":      0xaba52b63902032bb,
		"replicated/1":        0x213ce2b0c262b8d3,
		"replicated/7.3":      0xd6e79058610dcdc4,
		"replicated/29.999":   0xcb865e288d06cd73,
		"replicated/30":       0xb26b58ca59833423,
		"replicated/30.0001":  0x25df555b0cfad3ec,
		"replicated/250":      0xf01dac9d9e5b23aa,
		"replicated/rotating": 0x4a145b0cdb4124b2,
		"replicated/diurnal":  0x414d348578e1f0c2,
	}
	got := map[string]uint64{}
	for _, lam := range pinnedLambdas {
		got[fmt.Sprintf("stream/%v", lam)] = streamDigest(1_000_000, func(int) float64 { return lam })
		got[fmt.Sprintf("replicated/%v", lam)] = replicatedDigest(333_334, func(_, c int) float64 {
			return lam * []float64{1, 1.0 / 3, 2.0 / 9}[c]
		})
	}
	got["stream/rotating"] = streamDigest(200_000, rotating)
	got["replicated/rotating"] = replicatedDigest(70_000, func(t, c int) float64 { return rotating(3*t + c) })
	got["replicated/diurnal"] = replicatedDigest(70_000, diurnal)
	for name, d := range got {
		if w, ok := want[name]; !ok || w != d {
			t.Errorf("%s: digest %#016x, want %#016x", name, d, w)
		}
	}
}

// linearScan is the inversion the guide table replaced: the first k with
// cdf[k] > u, or len(cdf). It is the oracle the guided start must match.
func linearScan(cdf []float64, u float64) int {
	for k, c := range cdf {
		if c > u {
			return k
		}
	}
	return len(cdf)
}

// guideLambdas spans the table-built rates, from a two-entry table to the
// normal-approximation threshold, and a NaN rate's table of one NaN.
var guideLambdas = []float64{1e-9, 1e-3, 0.1, 0.5, 1, 2.5, 7.3, 12, 17.9, 25, 29.999, 30, math.NaN()}

// TestGuideMatchesScan: the guided inversion returns the linear scan's
// answer at every bucket edge j/M, at every CDF value and both of its
// floating-point neighbours, and on a dense grid.
func TestGuideMatchesScan(t *testing.T) {
	for _, lam := range guideLambdas {
		s := NewRNG(1).PoissonStream()
		s.build(lam)
		m := len(s.guide)
		if m&(m-1) != 0 || m < len(s.cdf) {
			t.Fatalf("λ=%v: guide of %d entries over a table of %d", lam, m, len(s.cdf))
		}
		var us []float64
		for j := 0; j < m; j++ {
			us = append(us, float64(j)/float64(m))
		}
		for _, c := range s.cdf {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for i := 0; i < 100_000; i++ {
			us = append(us, float64(i)/100_000)
		}
		us = append(us, math.Nextafter(1, 0))
		for _, u := range us {
			if !(u >= 0 && u < 1) {
				continue // a NaN table's CDF values are not draws
			}
			if got, want := s.invert(u), linearScan(s.cdf, u); got != want {
				t.Fatalf("λ=%v u=%v: guided %d, scan %d", lam, u, got, want)
			}
		}
	}
}

// TestGuideScanIsShort pins the sampler's O(1) cost without a clock: the
// mean number of table entries a draw examines, over a uniform grid of u,
// stays at most 2 for every table-built rate (the scan from 0 examined
// 1+λ on average, 14.9 over the bidding mix's classes).
func TestGuideScanIsShort(t *testing.T) {
	const n = 100_000
	for _, lam := range guideLambdas {
		s := NewRNG(1).PoissonStream()
		s.build(lam)
		examined := 0
		for i := 0; i < n; i++ {
			u := (float64(i) + 0.5) / n
			k := s.invert(u)
			// The scan reads cdf[guide[j]] up to the answer, inclusive
			// when the answer is inside the table.
			examined += k - int(s.guide[int(u*float64(len(s.guide)))])
			if k < len(s.cdf) {
				examined++
			}
		}
		if mean := float64(examined) / n; mean > 2 {
			t.Errorf("λ=%v: %.2f entries examined per draw, want ≤ 2", lam, mean)
		}
	}
}
