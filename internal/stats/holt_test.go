package stats

import (
	"math"
	"testing"
)

func TestHoltTracksLinearTrend(t *testing.T) {
	h := NewHolt(0.5, 0.3)
	for i := 0; i < 100; i++ {
		h.Add(10 + 2*float64(i))
	}
	if !almost(h.Trend(), 2, 0.05) {
		t.Errorf("trend %v want ~2", h.Trend())
	}
	// 10-step forecast of y=10+2x from x=99.
	want := 10 + 2*109.0
	if got := h.Level() + 10*h.Trend(); math.Abs(got-want) > 2 {
		t.Errorf("forecast %v want ~%v", got, want)
	}
}

func TestHoltStepsToCross(t *testing.T) {
	h := NewHolt(0.5, 0.3)
	for i := 0; i < 50; i++ {
		h.Add(0.5 + 0.005*float64(i)) // heading to 0.95 in ~40 more steps
	}
	steps, ok := h.StepsToCross(0.95, 200)
	if !ok {
		t.Fatal("no crossing forecast")
	}
	if steps < 20 || steps > 70 {
		t.Errorf("crossing in %d steps, want ~40", steps)
	}
	// Beyond horizon.
	if _, ok := h.StepsToCross(0.95, 5); ok {
		t.Error("crossing accepted beyond horizon")
	}
	// Already crossed.
	if steps, ok := h.StepsToCross(0.4, 100); !ok || steps != 0 {
		t.Error("already-crossed level not immediate")
	}
}

func TestHoltFlatNeverCrosses(t *testing.T) {
	h := NewHolt(0.3, 0.3)
	for i := 0; i < 60; i++ {
		h.Add(0.5)
	}
	if _, ok := h.StepsToCross(0.95, 1000); ok {
		t.Error("flat series forecast a crossing")
	}
}

func TestHoltBeatsOLSOnAcceleratingLeak(t *testing.T) {
	// Quadratic growth: early samples drag the OLS slope down; Holt's
	// exponential decay keeps up.
	series := make([]float64, 120)
	for i := range series {
		x := float64(i)
		series[i] = 0.3 + 0.00004*x*x
	}
	h := NewHolt(0.25, 0.1)
	for _, v := range series {
		h.Add(v)
	}
	hSteps, hOK := h.StepsToCross(0.95, 10000)
	fit := FitSeries(series)
	fX, fOK := fit.CrossingTime(0.95, float64(len(series)-1))
	if !hOK {
		t.Fatal("holt found no crossing on accelerating leak")
	}
	// True crossing: 0.3+0.00004x² = 0.95 → x ≈ 127.5 → ~8 steps ahead.
	if hSteps > 60 {
		t.Errorf("holt crossing %d steps ahead, too lagged", hSteps)
	}
	if fOK {
		fSteps := fX - float64(len(series)-1)
		if float64(hSteps) > fSteps {
			t.Errorf("holt (%d) should forecast the crossing sooner than OLS (%.0f)", hSteps, fSteps)
		}
	}
}

func TestHoltParamClamping(t *testing.T) {
	h := NewHolt(-1, 7)
	if h.Alpha <= 0 || h.Alpha > 1 || h.Beta <= 0 || h.Beta > 1 {
		t.Errorf("params not clamped: %v %v", h.Alpha, h.Beta)
	}
	if h.N() != 0 {
		t.Error("fresh smoother has samples")
	}
	if _, ok := h.StepsToCross(1, 10); ok {
		t.Error("crossing with <2 samples")
	}
}
