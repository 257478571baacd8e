package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/detect"
	"selfheal/internal/diagnose"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
)

// Table2Config sizes the approach-comparison experiment.
type Table2Config struct {
	Seed int64
	// Episodes per scenario (the recurring scenario uses 2× this for a
	// warm-up half whose episodes are not measured).
	Episodes int
}

// DefaultTable2Config is the standard size.
func DefaultTable2Config() Table2Config { return Table2Config{Seed: 71, Episodes: 18} }

// QuickTable2Config is the test-sized variant.
func QuickTable2Config() Table2Config { return Table2Config{Seed: 71, Episodes: 6} }

// Table2Cell is one approach's measured behaviour in one scenario.
type Table2Cell struct {
	CorrectFirst float64 // fraction of detected failures fixed first try
	MeanAttempts float64
	Escalated    float64 // fraction escalated to the administrator
	MeanTTR      float64 // ticks
}

// Table2Result is the full comparison matrix, paper Table 2 made
// quantitative.
type Table2Result struct {
	Approaches []string
	Scenarios  []string
	Cells      [][]Table2Cell // [approach][scenario]
}

// table2Approaches builds a fresh approach set (order fixed).
func table2Approaches() []core.Approach {
	fixsym := core.NewFixSym(synopsis.NewNearestNeighbor())
	return []core.Approach{
		diagnose.NewManualRules(),
		diagnose.NewAnomaly(),
		diagnose.NewCorrelation(),
		diagnose.NewBottleneck(),
		fixsym,
		core.NewHybrid(
			core.NewFixSym(synopsis.NewNearestNeighbor()),
			diagnose.NewAnomaly(),
			diagnose.NewBottleneck(),
		),
	}
}

// scenarioKinds returns the fault kinds per scenario.
func scenarioKinds(name string) []catalog.FaultKind {
	switch name {
	case "bottleneck-shift":
		return []catalog.FaultKind{catalog.FaultBottleneck}
	case "rare":
		return []catalog.FaultKind{catalog.FaultBlockContention}
	default:
		return LearningKinds()
	}
}

// Scenarios of the §5.1 comparison: recurring failures (signature lookups
// shine), novel failures (first occurrences only — diagnosis shines),
// rarely-seen failures, shifting bottlenecks (bottleneck analysis shines),
// and workload drift against frozen baselines.
var table2Scenarios = []string{"recurring", "novel", "rare", "bottleneck-shift", "drift"}

// RunTable2 regenerates the Table 2 comparison as measured behaviour.
func RunTable2(cfg Table2Config) Table2Result {
	res := Table2Result{Scenarios: table2Scenarios}
	approaches := table2Approaches()
	for _, a := range approaches {
		res.Approaches = append(res.Approaches, a.Name())
	}
	for ai := range approaches {
		var row []Table2Cell
		for _, scen := range table2Scenarios {
			// Fresh approach per (approach type, scenario): no knowledge
			// leaks between scenarios.
			a := table2Approaches()[ai]
			row = append(row, runScenario(cfg, scen, a))
		}
		res.Cells = append(res.Cells, row)
	}
	return res
}

// runScenario drives one approach through one scenario and aggregates the
// measured half of the episodes.
func runScenario(cfg Table2Config, scen string, approach core.Approach) Table2Cell {
	ctx := context.Background()
	n := cfg.Episodes
	gen := faults.NewGenerator(cfg.Seed+hashString(scen), scenarioKinds(scen)...)
	var stats selfheal.FleetStats
	refBuilder := buildReferenceBaseline(cfg.Seed)

	warmup := 0
	if scen == "recurring" || scen == "rare" || scen == "drift" {
		warmup = n // unmeasured first half teaches the learners
	}
	total := warmup + n
	for i := 0; i < total; i++ {
		f := gen.Next()
		if scen == "rare" && i < warmup {
			// The rare failure's signature is taught at most once during
			// warm-up; everything else is common-case traffic.
			if i != warmup/2 {
				f = faults.NewGenerator(cfg.Seed+int64(i)*7, commonKinds()...).Next()
			}
		}
		seed := cfg.Seed + hashString(scen)*31 + int64(i)*101
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed), selfheal.WithApproachInstance(approach))
		if scen == "drift" {
			// System evolution: the workload the service actually runs has
			// drifted away from what the baselines were frozen on — capped
			// below the saturation point so the scenario tests stale
			// baselines, not overload.
			drift := 0.025 * float64(i)
			if drift > 0.4 {
				drift = 0.4
			}
			driftTo(sys, 1+drift, refBuilder)
		}
		ep := sys.HealEpisode(ctx, f)
		if i < warmup {
			continue
		}
		if scen == "rare" && f.Kind() != catalog.FaultBlockContention {
			continue
		}
		stats.Add(ep)
	}
	return Table2Cell{
		CorrectFirst: perDetected(stats.CorrectFirst, stats),
		MeanAttempts: perDetected(stats.Attempts, stats),
		Escalated:    perDetected(stats.Escalated, stats),
		MeanTTR:      stats.MeanTTR,
	}
}

// commonKinds is every learning kind except the designated rare one.
func commonKinds() []catalog.FaultKind {
	var out []catalog.FaultKind
	for _, k := range LearningKinds() {
		if k != catalog.FaultBlockContention {
			out = append(out, k)
		}
	}
	return out
}

// buildReferenceBaseline freezes a symptom baseline on the undrifted
// workload, standing in for the baselines captured at deployment time.
func buildReferenceBaseline(seed int64) *detect.SymptomBuilder {
	return selfheal.MustNew(context.Background(), selfheal.WithSeed(seed+424243)).Builder
}

// driftTo models system evolution: the workload sys actually runs has
// drifted to scale times what the deployment-time baseline ref was frozen
// on, and symptoms are still expressed against that stale baseline.
func driftTo(sys *selfheal.System, scale float64, ref *detect.SymptomBuilder) {
	sys.Target().(targets.WorkloadShaper).SetLoadScale(scale)
	sys.StepN(60) // let utilization settle at the drifted level
	sys.Builder = ref
}

// Format renders the comparison matrix.
func (r Table2Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 2 — automated fix identification approaches, measured\n")
	b.WriteString("(per cell: correct-first%% / mean attempts / escalated%% / mean TTR s)\n")
	fmt.Fprintf(&b, "%-22s", "approach")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "%-26s", s)
	}
	b.WriteByte('\n')
	for ai, a := range r.Approaches {
		fmt.Fprintf(&b, "%-22s", a)
		for si := range r.Scenarios {
			c := r.Cells[ai][si]
			fmt.Fprintf(&b, "%3.0f%%/%4.1f/%3.0f%%/%6.0fs   ",
				100*c.CorrectFirst, c.MeanAttempts, 100*c.Escalated, c.MeanTTR)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// hashString gives a small stable per-scenario seed offset.
func hashString(s string) int64 {
	var h int64 = 17
	for _, c := range s {
		h = h*31 + int64(c)
	}
	if h < 0 {
		h = -h
	}
	return h % 100000
}
