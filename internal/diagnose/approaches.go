package diagnose

import (
	"math"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/stats"
)

// Anomaly is the diagnosis-via-anomaly-detection approach (§4.3.1,
// Example 2): deviations of the current window from the learned baseline
// implicate components and attributes; the χ² call-matrix test localizes
// component failures, and large per-metric z-scores map to fixes through
// the service structure.
//
// Its strength (per Table 2) is handling failures never seen before; its
// weakness is needing fine-grained (invasive) data such as per-EJB call
// counts, and baseline quality.
type Anomaly struct {
	// MinZ is the z-score magnitude below which a metric is not considered
	// anomalous.
	MinZ float64
}

// NewAnomaly returns the anomaly-detection approach.
func NewAnomaly() *Anomaly { return &Anomaly{MinZ: 2.5} }

// Name implements core.Approach.
func (a *Anomaly) Name() string { return "anomaly-detection" }

// Observe implements core.Approach; pure diagnosis keeps no per-episode
// state.
func (a *Anomaly) Observe(*core.FailureContext, core.Action, bool) {}

// Evidence implements core.EvidenceReader: the χ² call-matrix test
// localizes component failures.
func (a *Anomaly) Evidence() core.Evidence { return core.EvidenceCalls }

// Recommend implements core.Approach.
func (a *Anomaly) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	var cands []candidate
	// Component-level localization first: the paper's Example 2 flow.
	if len(ctx.CallAnomalies) > 0 {
		if act, ok := ctx.ComponentFix(ctx.CallCallees[ctx.CallAnomalies[0].Col]); ok {
			cands = append(cands, candidate{action: act, score: 100 + ctx.CallAnomalies[0].Score})
		}
	}
	// Attribute-level anomalies, strongest deviation first. Z-scores clamp,
	// so ties at the clamp are common; a metric that names a concrete
	// cause (a buffer, table, heap or link) outranks a generic saturation
	// gauge (threads, CPU), which is usually a downstream symptom.
	for i, z := range ctx.Symptom {
		mag := math.Abs(z)
		if mag < a.MinZ {
			continue
		}
		acts, generic := ctx.Implicated(i, z)
		bonus := 2.0
		if generic {
			bonus = 0
		}
		for rank, act := range acts {
			cands = append(cands, candidate{action: act, score: mag + bonus - float64(rank)*0.25})
		}
	}
	return pickUntried(cands, tried)
}

// Correlation is the diagnosis-via-correlation-analysis approach (§4.3.2,
// Example 3): attributes strongly correlated with the failure indicator
// over recent history implicate the fix. It is simple and efficient but —
// as Table 2 notes — needs enough historical records relating the
// attribute to failure, so it degrades on novel and rare failures.
type Correlation struct {
	// MinAbsR is the minimum |Pearson r| to implicate an attribute.
	MinAbsR float64
	// MinFailTicks is the minimum number of failing ticks required in the
	// history before correlations are considered meaningful.
	MinFailTicks int
}

// NewCorrelation returns the correlation-analysis approach.
func NewCorrelation() *Correlation { return &Correlation{MinAbsR: 0.35, MinFailTicks: 8} }

// Name implements core.Approach.
func (c *Correlation) Name() string { return "correlation-analysis" }

// Observe implements core.Approach.
func (c *Correlation) Observe(*core.FailureContext, core.Action, bool) {}

// Evidence implements core.EvidenceReader: the correlations are taken over
// the whole History window, and an implicated thread pool is localized by
// the call-matrix test.
func (c *Correlation) Evidence() core.Evidence { return core.EvidenceHistory | core.EvidenceCalls }

// Recommend implements core.Approach.
func (c *Correlation) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	hist := ctx.History
	n := hist.Len()
	if n < 30 {
		return core.Action{}, 0, false
	}
	// Failure-indicator attribute Y (Example 3): the per-tick SLO
	// violation share derived from outcome columns.
	y := failureIndicator(ctx)
	fails := 0
	for _, v := range y {
		if v > 0.5 {
			fails++
		}
	}
	if fails < c.MinFailTicks {
		return core.Action{}, 0, false
	}
	var cands []candidate
	for i := range ctx.Symptom {
		r := stats.Pearson(hist.ColIdx(i), y)
		if math.Abs(r) < c.MinAbsR {
			continue
		}
		acts, _ := ctx.Implicated(i, r)
		for rank, act := range acts {
			cands = append(cands, candidate{action: act, score: math.Abs(r) - float64(rank)*0.05})
		}
	}
	return pickUntried(cands, tried)
}

// failureIndicator builds the 0/1 failure attribute from history
// outcomes; nil when the target reports no svc.* outcome columns.
func failureIndicator(ctx *core.FailureContext) []float64 {
	hist := ctx.History
	lat := hist.Col("svc.latency.avg")
	errRate := hist.Col("svc.errorrate")
	down := hist.Col("svc.down")
	if lat == nil || errRate == nil || down == nil {
		return nil
	}
	y := make([]float64, hist.Len())
	for t := range y {
		if down[t] > 0.5 || lat[t] > 250 || errRate[t] > 0.02 {
			y[t] = 1
		}
	}
	return y
}

// Bottleneck is the diagnosis-via-bottleneck-analysis approach (§4.3.3,
// Example 4): it reasons from the structural relationship between request
// time and per-resource occupancy (the extra information the paper says
// this approach needs). It excels at resource saturation — including
// saturation caused by suboptimal plans, contention or misconfiguration —
// and abstains on failures with no resource signature (deadlocks,
// exceptions), exactly the profile Table 2 records. Its database
// reasoning is Example 4's, over the auction database's own gauges; the
// other tiers it grows are those the target's provision-tier locator lists.
type Bottleneck struct {
	// HotUtil is the utilization above which a resource is the bottleneck.
	HotUtil float64
}

// NewBottleneck returns the bottleneck-analysis approach.
func NewBottleneck() *Bottleneck { return &Bottleneck{HotUtil: 0.9} }

// Name implements core.Approach.
func (b *Bottleneck) Name() string { return "bottleneck-analysis" }

// Observe implements core.Approach.
func (b *Bottleneck) Observe(*core.FailureContext, core.Action, bool) {}

// Recommend implements core.Approach.
func (b *Bottleneck) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	// Utilization is read from the live gauges: the detection window can
	// straddle fault onset, and a mean diluted by pre-fault ticks would
	// hide a fresh saturation.
	util := func(name string) float64 { return ctx.Latest(name) }
	var cands []candidate
	add := func(a core.Action, score float64) {
		cands = append(cands, candidate{action: a, score: score})
	}

	// Root-cause refinements first: a saturated resource whose demand was
	// inflated by a bad plan or lost buffer memory is not a capacity
	// problem (Example 4 and ref [1]).
	plan := util("db.plan.slowdown")
	if plan > 1.4 {
		if t, ok := ctx.Localise(catalog.FixUpdateStats); ok {
			add(core.Action{Fix: catalog.FixUpdateStats, Target: t}, 10+plan)
			add(core.Action{Fix: catalog.FixRebuildIndex, Target: t}, 4+plan)
		}
	} else if util("db.cpu.util") > b.HotUtil {
		// CPU hot with a good plan: either genuine volume (queries grew
		// proportionally — provision) or per-query cost inflation on one
		// table (an index went missing — rebuild). The ratio of cost to
		// query count against baseline separates the two.
		if t, infl := mostInflatedTable(ctx); t != "" && infl > 3 {
			add(core.Action{Fix: catalog.FixRebuildIndex, Target: t}, 9)
			add(core.Action{Fix: catalog.FixUpdateStats, Target: t}, 8)
		}
		add(core.Action{Fix: catalog.FixProvisionTier, Target: "db"}, util("db.cpu.util"))
	}
	if util("db.io.util") > 0.6 || ctx.ZScore("db.buffer.hitratio") < -3 {
		add(core.Action{Fix: catalog.FixRepartitionMemory}, 6+util("db.io.util"))
	}
	if util("db.conns.util") > b.HotUtil && util("db.cpu.util") < 0.8 {
		// Connection-limited but CPU idle: the pool is misconfigured.
		add(core.Action{Fix: catalog.FixRestoreConfig}, 7)
	}
	if lw := util("db.lockwait.avgms"); lw > 15 {
		if t, ok := ctx.Localise(catalog.FixRepartitionTable); ok {
			add(core.Action{Fix: catalog.FixRepartitionTable, Target: t}, 8+lw/100)
		}
	}
	if util("app.heap.occ") > 0.8 || util("app.gc.overhead") > 0.25 {
		add(core.Action{Fix: catalog.FixRebootAppTier, Target: "app"}, 6)
	}
	for _, t := range ctx.Candidates(catalog.FixProvisionTier) {
		if u := util(t + ".cpu.util"); t != "db" && u > b.HotUtil {
			add(core.Action{Fix: catalog.FixProvisionTier, Target: t}, u)
		}
	}
	if util("app.threads.util") > b.HotUtil && util("app.cpu.util") < 0.8 {
		// Threads exhausted while CPU is idle: work is parked, not queued —
		// a hang, not a capacity problem. Bottleneck analysis can only
		// restore thread capacity.
		add(core.Action{Fix: catalog.FixRestoreConfig}, 5)
	}
	return pickUntried(cands, tried)
}

// mostInflatedTable returns the table whose per-query cost grew the most
// relative to baseline, with the growth factor. It walks the tables the
// rebuild-index locator lists but does not take the locator's answer
// (ctx.Localise): cost that grew with the query count is load, and only
// cost per query separates a lost index from it.
func mostInflatedTable(ctx *core.FailureContext) (string, float64) {
	best, bestInfl := "", 1.0
	for _, t := range ctx.Candidates(catalog.FixRebuildIndex) {
		cost, queries := "db.table."+t+".costops", "db.table."+t+".queries"
		qCur, qBase, costBase := ctx.CurrentMean(queries), ctx.BaselineMean(queries), ctx.BaselineMean(cost)
		if qCur < 1 || qBase < 1 || costBase <= 0 {
			continue
		}
		infl := (ctx.CurrentMean(cost) / qCur) / (costBase / qBase)
		if infl > bestInfl {
			best, bestInfl = t, infl
		}
	}
	return best, bestInfl
}

// ManualRules is the manual rule-based baseline of §3: static if-then
// threshold rules written before production, never evolving. They work for
// foreseen failures and fall back to the coarse-grained universal fix —
// "do a full database restart if any failure is observed" — for anything
// else.
type ManualRules struct{}

// NewManualRules returns the static rule set.
func NewManualRules() *ManualRules { return &ManualRules{} }

// Name implements core.Approach.
func (m *ManualRules) Name() string { return "manual-rules" }

// Observe implements core.Approach: the rules never change — the paper's
// core criticism.
func (m *ManualRules) Observe(*core.FailureContext, core.Action, bool) {}

// Recommend implements core.Approach. The rule list is the target's,
// fixed and ordered; thresholds reference absolute values a 2007 DBA
// would have written down.
func (m *ManualRules) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	// The target's rules fire on the live gauges, the first rule at the
	// highest priority, above the coarse universal fallback.
	rules := ctx.ManualFixes()
	cands := []candidate{{action: core.Action{Fix: catalog.FixFullRestart}, score: 0.5}}
	for i, acts := range rules {
		for _, a := range acts {
			cands = append(cands, candidate{action: a, score: float64(len(rules) + 1 - i)})
		}
	}
	return pickUntried(cands, tried)
}
