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

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("q=%v got %v want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); !almost(got, 5, 1e-12) {
		t.Errorf("interp got %v", got)
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile mutated its input")
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

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // nonlinear but monotone
	if r := Spearman(xs, ys); !almost(r, 1, 1e-12) {
		t.Errorf("monotone spearman %v", r)
	}
}

func TestRanksTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks %v want %v", r, want)
		}
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
	if e.Initialized() {
		t.Fatal("uninitialized EWMA claims init")
	}
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
