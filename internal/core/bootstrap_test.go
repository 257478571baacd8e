package core_test

import (
	"context"

	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// TestBootstrapPretrainsApproach verifies the §4.2/§5.2 active-stimulation
// bootstrap: a synopsis trained in preproduction fixes its first production
// failure without escalating.
func TestBootstrapPretrainsApproach(t *testing.T) {
	if testing.Short() {
		t.Skip("learning experiment")
	}
	syn := synopsis.NewNearestNeighbor()
	fs := core.NewFixSym(syn)
	plan := core.BootstrapPlan{
		Seed:    5150,
		Kinds:   []catalog.FaultKind{catalog.FaultStaleStats, catalog.FaultBufferContention},
		PerKind: 2,
	}
	n := core.Bootstrap(context.Background(), plan, fs)
	if n < 3 {
		t.Fatalf("bootstrap produced only %d observations", n)
	}
	if syn.TrainingSize() != n {
		t.Errorf("synopsis holds %d, bootstrap reported %d", syn.TrainingSize(), n)
	}

	// First production failure of a bootstrapped kind: no escalation.
	h := core.NewHarness(core.DefaultHarnessConfig())
	hl := core.NewHealer(h, fs, core.DefaultHealerConfig())
	hl.AdminOracle = h.Target.CorrectFix
	ep := hl.RunEpisode(context.Background(), faults.NewBufferContention(0.8))
	if !ep.Recovered {
		t.Fatal("bootstrapped healer did not recover")
	}
	if ep.Escalated {
		t.Error("bootstrapped signature still escalated to the administrator")
	}
}

// TestBootstrapColdComparison quantifies the bootstrap's value: the same
// failure against a cold healer escalates.
func TestBootstrapColdComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("learning experiment")
	}
	cold := core.NewFixSym(synopsis.NewNearestNeighbor())
	h := core.NewHarness(core.DefaultHarnessConfig())
	hl := core.NewHealer(h, cold, core.DefaultHealerConfig())
	hl.AdminOracle = h.Target.CorrectFix
	ep := hl.RunEpisode(context.Background(), faults.NewBufferContention(0.8))
	if !ep.Escalated {
		t.Error("cold healer should have escalated on its first-ever failure")
	}
}

// TestBootstrapDefaults exercises the default plan end to end.
func TestBootstrapDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("learning experiment")
	}
	plan := core.DefaultBootstrapPlan()
	plan.PerKind = 1
	plan.LoadScales = []float64{1.0}
	fs := core.NewFixSym(synopsis.NewKMeans())
	if n := core.Bootstrap(context.Background(), plan, fs); n < 6 {
		t.Errorf("default plan trained only %d observations", n)
	}
}
