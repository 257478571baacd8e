package stats

import (
	"math"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v", m)
	}
	if Sum(xs) != 40 {
		t.Error("sum wrong")
	}
	if Mean(nil) != 0 || Sum(nil) != 0 {
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
