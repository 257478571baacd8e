package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance %v", v)
	}
	if s := Stddev(xs); s != 2 {
		t.Errorf("stddev %v", s)
	}
	if Min(xs) != 2 || Max(xs) != 9 || Sum(xs) != 40 {
		t.Error("min/max/sum wrong")
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input defaults wrong")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Errorf("perfect positive r=%v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-12) {
		t.Errorf("perfect negative r=%v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := Pearson(xs, flat); r != 0 {
		t.Errorf("zero-variance r=%v", r)
	}
	if r := Pearson(xs[:1], ys[:1]); r != 0 {
		t.Errorf("single point r=%v", r)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e8 {
				clean = append(clean, x)
			}
		}
		var w Welford
		for _, x := range clean {
			w.Add(x)
		}
		if len(clean) == 0 {
			return w.N() == 0 && w.Mean() == 0
		}
		scale := math.Abs(Mean(clean)) + Stddev(clean) + 1
		return almost(w.Mean(), Mean(clean), 1e-6*scale) &&
			almost(w.Variance(), Variance(clean), 1e-6*scale*scale)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("after second %v", e.Value())
	}
	// Bad alpha falls back to a sane default rather than freezing.
	bad := EWMA{Alpha: 5}
	bad.Add(1)
	bad.Add(2)
	if bad.Value() <= 1 || bad.Value() >= 2 {
		t.Fatalf("bad alpha value %v", bad.Value())
	}
}
