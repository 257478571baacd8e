package core

import (
	"context"

	"selfheal/internal/catalog"
	"selfheal/internal/faults"
	"selfheal/internal/targets"
)

// This file implements the paper's §4.2 active data collection: "during
// preproduction (e.g., testing and deployment), the service can be
// subjected to different types and rates of workloads, and injected with
// various failures; while recording data about observed behavior", and the
// §5.2 bootstrap: "a domain expert can guide which workloads to use, which
// types of failures to inject, and where to inject them; to generate data
// that can bootstrap synopsis learning."

// BootstrapPlan is the domain expert's stimulation schedule.
type BootstrapPlan struct {
	Seed int64
	// Kinds to inject; nil means every Table 1 learning kind.
	Kinds []catalog.FaultKind
	// PerKind is the number of instances injected per kind.
	PerKind int
	// LoadScales stimulates each fault under these workload intensities
	// (nil means {1.0}), exercising the same failure at different
	// operating points.
	LoadScales []float64
	// Budget bounds detection wait per instance.
	Budget int
}

// DefaultBootstrapPlan exercises every learning kind twice at two load
// levels.
func DefaultBootstrapPlan() BootstrapPlan {
	return BootstrapPlan{
		Seed:       1234,
		PerKind:    2,
		LoadScales: []float64{1.0, 1.3},
		Budget:     2500,
	}
}

// Bootstrap runs the preproduction campaign and feeds ground-truth-labeled
// outcomes to the approach (in preproduction the injected fault is known,
// so labels are free). It returns the number of training observations
// produced. Cancelling the context abandons the remaining schedule.
func Bootstrap(ctx context.Context, plan BootstrapPlan, approach Approach) int {
	kinds := plan.Kinds
	if len(kinds) == 0 {
		kinds = []catalog.FaultKind{
			catalog.FaultDeadlock, catalog.FaultException, catalog.FaultAging,
			catalog.FaultStaleStats, catalog.FaultBlockContention,
			catalog.FaultBufferContention, catalog.FaultBottleneck, catalog.FaultCodeBug,
		}
	}
	scales := plan.LoadScales
	if len(scales) == 0 {
		scales = []float64{1.0}
	}
	perKind := plan.PerKind
	if perKind < 1 {
		perKind = 1
	}
	budget := plan.Budget
	if budget < 100 {
		budget = 2500
	}

	trained := 0
	seq := int64(0)
	for _, kind := range kinds {
		gen := faults.NewGenerator(plan.Seed+int64(kind)*131, kind)
		for rep := 0; rep < perKind; rep++ {
			for _, scale := range scales {
				if ctx.Err() != nil {
					return trained
				}
				seq++
				cfg := DefaultHarnessConfig()
				cfg.Seed = plan.Seed + seq*977
				// The default mix ("") is always valid: no error.
				t, _ := targets.NewAuction(targets.Config{Seed: cfg.Seed})
				h := NewTargetHarness(t, cfg)
				t.SetLoadScale(scale)
				h.StepN(40) // settle at the stimulated load
				fctx, label, ok := h.LabeledFailure(ctx, gen.NextOfKind(kind), budget)
				if !ok {
					continue
				}
				approach.Observe(fctx, label, true)
				trained++
			}
		}
	}
	return trained
}

// LabeledFailure injects f, waits up to budget ticks for it to become
// SLO-visible, and returns what the approaches would observe about the
// failure together with its ground-truth fix — one labeled observation of
// the kind preproduction stimulation and held-out test sets are made of.
// ok is false when the target refused the fault or the failure was never
// detected.
func (h *Harness) LabeledFailure(ctx context.Context, f Fault, budget int) (fctx *FailureContext, label Action, ok bool) {
	if err := h.Target.Inject(f); err != nil {
		return nil, Action{}, false
	}
	if !h.RunUntilFailing(ctx, budget) {
		return nil, Action{}, false
	}
	fix, target := f.CorrectFix()
	return h.BuildContext(), Action{Fix: fix, Target: target}, true
}
