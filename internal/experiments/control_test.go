package experiments

import (
	"testing"

	"selfheal/internal/catalog"
)

func TestTransientMonotoneRecovery(t *testing.T) {
	// Latency decays from 800 toward target 100, settles inside ±10%.
	series := []float64{800, 500, 300, 180, 130, 108, 104, 102, 101, 100, 100, 100}
	tr := analyzeTransient(series, 100, 0.1)
	if !tr.Settled {
		t.Fatal("monotone recovery did not settle")
	}
	if tr.SettlingTime != 5 {
		t.Errorf("settling time %d, want 5 (first index of the settled tail)", tr.SettlingTime)
	}
	if tr.Overshoot > 0.01 {
		t.Errorf("monotone recovery overshoot %v", tr.Overshoot)
	}
	if tr.SteadyStateError > 0.03 {
		t.Errorf("steady-state error %v", tr.SteadyStateError)
	}
}

func TestTransientOvershoot(t *testing.T) {
	// Recovery dips below the target (overshoots) before settling.
	series := []float64{800, 400, 100, 60, 70, 95, 100, 101, 100, 100}
	tr := analyzeTransient(series, 100, 0.1)
	if tr.Overshoot < 0.3 {
		t.Errorf("overshoot %v, want ≥ 0.4-ish for the dip to 60", tr.Overshoot)
	}
}

func TestTransientNeverSettles(t *testing.T) {
	series := []float64{800, 700, 800, 750, 820, 790, 810, 800}
	tr := analyzeTransient(series, 100, 0.1)
	if tr.Settled {
		t.Fatal("oscillating-high series settled")
	}
	if tr.SteadyStateError < 5 {
		t.Errorf("steady-state error %v too small for a 8x-off tail", tr.SteadyStateError)
	}
}

func TestTransientDegenerate(t *testing.T) {
	if tr := analyzeTransient(nil, 100, 0.1); tr.Settled {
		t.Error("empty series settled")
	}
	if tr := analyzeTransient([]float64{1, 2}, 0, 0.1); tr.Settled {
		t.Error("non-positive target settled")
	}
}

func TestDetectFlapping(t *testing.T) {
	mk := func(fix catalog.FixID, at int64) fixEvent {
		return fixEvent{Fix: fix, At: at}
	}
	// The same fix five times in 100 ticks: unstable.
	events := []fixEvent{
		mk(catalog.FixKillHungQuery, 0),
		mk(catalog.FixKillHungQuery, 20),
		mk(catalog.FixKillHungQuery, 40),
		mk(catalog.FixKillHungQuery, 60),
		mk(catalog.FixKillHungQuery, 80),
	}
	f := detectFlapping(events, 100, 3)
	if !f.Unstable || f.Worst != 5 {
		t.Errorf("flapping not detected: %+v", f)
	}
	// Same five applications spread over a long horizon: stable.
	spread := []fixEvent{
		mk(catalog.FixKillHungQuery, 0),
		mk(catalog.FixKillHungQuery, 500),
		mk(catalog.FixKillHungQuery, 1000),
		mk(catalog.FixKillHungQuery, 1500),
		mk(catalog.FixKillHungQuery, 2000),
	}
	f = detectFlapping(spread, 100, 3)
	if f.Unstable {
		t.Errorf("spread applications flagged: %+v", f)
	}
	// Different fixes within the window do not flap.
	varied := []fixEvent{
		mk(catalog.FixKillHungQuery, 0),
		mk(catalog.FixUpdateStats, 10),
		mk(catalog.FixRepartitionMemory, 20),
	}
	f = detectFlapping(varied, 100, 2)
	if f.Unstable {
		t.Errorf("varied fixes flagged: %+v", f)
	}
}
