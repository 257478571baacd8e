package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	if got := c.Advance(5); got != 5 {
		t.Fatalf("advance returned %d", got)
	}
	if got := c.Advance(0); got != 5 {
		t.Fatalf("zero advance moved clock to %d", got)
	}
	if got := c.Advance(-3); got != 5 {
		t.Fatalf("negative advance moved clock to %d", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 4, 25, 80, 400} {
		g := NewRNG(42)
		n := 4000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/float64(n))+0.5 {
			t.Errorf("Poisson(%v) mean %.2f too far off", lambda, mean)
		}
	}
	g := NewRNG(1)
	if g.Poisson(0) != 0 || g.Poisson(-3) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestPickProportions(t *testing.T) {
	g := NewRNG(3)
	w := []float64{1, 3, 0, 6}
	counts := make([]int, 4)
	n := 20000
	for i := 0; i < n; i++ {
		counts[g.Pick(w)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[2])
	}
	if frac := float64(counts[3]) / float64(n); math.Abs(frac-0.6) > 0.03 {
		t.Errorf("weight-6 index frac %.3f, want ~0.6", frac)
	}
}

func TestPickDegenerate(t *testing.T) {
	g := NewRNG(5)
	if got := g.Pick(nil); got != 0 {
		t.Errorf("empty weights pick %d", got)
	}
	// All-zero weights: uniform fallback stays in range.
	for i := 0; i < 100; i++ {
		if got := g.Pick([]float64{0, 0, 0}); got < 0 || got > 2 {
			t.Fatalf("pick %d out of range", got)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	g := NewRNG(9)
	if g.Bool(0) || g.Bool(-1) {
		t.Error("p<=0 returned true")
	}
	if !g.Bool(1) || !g.Bool(2) {
		t.Error("p>=1 returned false")
	}
}

func TestUniformBounds(t *testing.T) {
	g := NewRNG(11)
	if got := g.Uniform(5, 5); got != 5 {
		t.Errorf("degenerate uniform %v", got)
	}
	if got := g.Uniform(5, 2); got != 5 {
		t.Errorf("inverted uniform %v", got)
	}
}

func TestQuickDistributionDomains(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed int64, lam float64) bool {
		lam = math.Mod(math.Abs(lam), 500)
		g := NewRNG(seed)
		if g.Poisson(lam) < 0 {
			return false
		}
		lo, hi := -math.Abs(lam), math.Abs(lam)+1
		u := g.Uniform(lo, hi)
		return u >= lo && u < hi
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Pick always returns a valid index for arbitrary weight vectors.
func TestQuickPickInRange(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed int64, w []float64) bool {
		if len(w) == 0 {
			return NewRNG(seed).Pick(w) == 0
		}
		i := NewRNG(seed).Pick(w)
		return i >= 0 && i < len(w)
	}, cfg); err != nil {
		t.Error(err)
	}
}
