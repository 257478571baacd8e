package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfheal"
	"selfheal/internal/core"
	"selfheal/internal/diagnose"
	"selfheal/internal/scenario"
	"selfheal/internal/synopsis"
)

// The adversarial-scenario sweep: every shipped scenario (correlated
// cascade, flapping fault, grey failure, flash crowd) against a panel of
// learners. Single-fault campaigns measure how well each approach heals
// the failures it was built for; this sweep measures where each one
// breaks — overlapping symptom vectors, evidence that evaporates
// mid-diagnosis, damage below detection thresholds, load no fix clears.

// ScenarioSweepResult is the sweep matrix: per-scenario, per-learner run
// stats.
type ScenarioSweepResult struct {
	Scenarios []string
	Learners  []string
	Cells     [][]*scenario.Stats // [scenario][learner]
}

// sweepLearners builds a fresh learner panel (order fixed): the manual
// baseline, the two learned synopses with distinct failure modes under
// superposed symptoms, and the hybrid.
func sweepLearners() []core.Approach {
	return []core.Approach{
		diagnose.NewManualRules(),
		core.NewFixSym(synopsis.NewNearestNeighbor()),
		core.NewFixSym(synopsis.NewNaiveBayes()),
		newHybrid(),
	}
}

// RunScenarioSweep drives every library scenario through every learner
// on a fresh system each, all at the same seed, and collects the run stats.
func RunScenarioSweep(seed int64) ScenarioSweepResult {
	res := ScenarioSweepResult{Scenarios: scenario.LibraryNames()}
	for _, a := range sweepLearners() {
		res.Learners = append(res.Learners, a.Name())
	}
	ctx := context.Background()
	for _, sc := range scenario.Library() {
		var row []*scenario.Stats
		for li := range res.Learners {
			// Fresh system and learner per cell: no knowledge leaks
			// across scenarios or learners. The scenario's own target
			// pin selects the kind.
			sys, err := selfheal.New(ctx,
				selfheal.WithSeed(seed),
				selfheal.WithApproachInstance(sweepLearners()[li]),
				selfheal.WithScenario(sc))
			if err != nil {
				panic(err) // the library validates against its own targets
			}
			st, err := sys.RunScenario(ctx, nil)
			if err != nil {
				panic(err)
			}
			row = append(row, st)
		}
		res.Cells = append(res.Cells, row)
	}
	return res
}

// Format renders the sweep: one block per scenario with a recovered-%
// bar per learner, plus escalations and SLO damage.
func (r ScenarioSweepResult) Format() string {
	var b strings.Builder
	b.WriteString("Adversarial scenario sweep: recovered-% by learner\n")
	b.WriteString("(bars: share of detected failures healed without the administrator succeeding alone)\n")
	width := 0
	for _, l := range r.Learners {
		if len(l) > width {
			width = len(l)
		}
	}
	for si, name := range r.Scenarios {
		fmt.Fprintf(&b, "\n%s\n", name)
		for li, learner := range r.Learners {
			st := r.Cells[si][li]
			pct := st.RecoveredPct()
			fmt.Fprintf(&b, "  %-*s %s %5.1f%%  det=%d esc=%d slo-ticks=%d",
				width, learner, bar(pct, 20), pct, st.Detections, st.Escalations, st.SLOViolationTicks)
			if st.Detections == 0 {
				b.WriteString("  (nothing detected: grey/undeclared damage only)")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// bar renders pct (0–100) as a width-cell block bar.
func bar(pct float64, width int) string {
	filled := int(pct/100*float64(width) + 0.5)
	if filled > width {
		filled = width
	}
	return strings.Repeat("█", filled) + strings.Repeat("░", width-filled)
}
