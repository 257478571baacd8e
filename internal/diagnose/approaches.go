package diagnose

import (
	"math"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/metrics"
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
	if e := topCallAnomaly(ctx); e != "" {
		cands = append(cands, candidate{
			action: core.Action{Fix: catalog.FixMicrorebootEJB, Target: e},
			score:  100 + ctx.CallAnomalies[0].Score,
		})
	}
	// Attribute-level anomalies, strongest deviation first. Z-scores clamp,
	// so ties at the clamp are common; root-cause metrics (a specific
	// buffer, table, heap or link) outrank generic saturation gauges
	// (threads, CPU), which are usually downstream symptoms.
	names := ctx.Schema.Names()
	for i, z := range ctx.Symptom {
		mag := math.Abs(z)
		if mag < a.MinZ {
			continue
		}
		if isOutcomeMetric(names[i]) {
			// Latency/error/throughput columns restate that the service is
			// failing; they do not localize anything.
			continue
		}
		dir := 1.0
		if z < 0 {
			dir = -1
		}
		for rank, act := range actionsForMetric(names[i], dir, ctx) {
			score := mag + specificityBonus(names[i]) - float64(rank)*0.25
			cands = append(cands, candidate{action: act, score: score})
		}
	}
	return pickUntried(dedupe(cands), tried)
}

// specificityBonus prefers metrics that name a concrete cause over generic
// saturation gauges when both saturate the z-clamp.
func specificityBonus(name string) float64 {
	switch name {
	case "app.threads.util", "web.cpu.util", "app.cpu.util", "db.cpu.util":
		return 0
	default:
		return 2
	}
}

// isOutcomeMetric reports whether a metric describes the failure itself
// rather than a potential cause.
func isOutcomeMetric(name string) bool {
	switch name {
	case "svc.throughput", "svc.errors", "svc.errorrate", "svc.latency.avg",
		"svc.latency.p95", "svc.slo.violations", "svc.down":
		return true
	}
	// Per-class outcome columns.
	if len(name) > 8 && name[:8] == "web.req." {
		return true
	}
	return false
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
	names := ctx.Schema.Names()
	var cands []candidate
	for i, name := range names {
		if isOutcomeMetric(name) {
			continue
		}
		col := hist.ColIdx(i)
		r := stats.Pearson(col, y)
		mag := math.Abs(r)
		if mag < c.MinAbsR {
			continue
		}
		dir := 1.0
		if r < 0 {
			dir = -1
		}
		for rank, act := range actionsForMetric(name, dir, ctx) {
			cands = append(cands, candidate{action: act, score: mag - float64(rank)*0.05})
		}
	}
	return pickUntried(dedupe(cands), tried)
}

// failureIndicator builds the 0/1 failure attribute from history outcomes.
func failureIndicator(ctx *core.FailureContext) []float64 {
	hist := ctx.History
	lat := hist.Col("svc.latency.avg")
	errRate := hist.Col("svc.errorrate")
	down := hist.Col("svc.down")
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
// exceptions), exactly the profile Table 2 records.
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
		if t := worstTable(ctx, "costops"); t != "" {
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
		if t := worstTable(ctx, "lockms"); t != "" {
			add(core.Action{Fix: catalog.FixRepartitionTable, Target: t}, 8+lw/100)
		}
	}
	if util("app.heap.occ") > 0.8 || util("app.gc.overhead") > 0.25 {
		add(core.Action{Fix: catalog.FixRebootAppTier, Target: "app"}, 6)
	}
	if util("web.cpu.util") > b.HotUtil {
		add(core.Action{Fix: catalog.FixProvisionTier, Target: "web"}, util("web.cpu.util"))
	}
	if util("app.cpu.util") > b.HotUtil {
		add(core.Action{Fix: catalog.FixProvisionTier, Target: "app"}, util("app.cpu.util"))
	}
	if util("app.threads.util") > b.HotUtil && util("app.cpu.util") < 0.8 {
		// Threads exhausted while CPU is idle: work is parked, not queued —
		// a hang, not a capacity problem. Bottleneck analysis can only
		// restore thread capacity.
		add(core.Action{Fix: catalog.FixRestoreConfig}, 5)
	}
	return pickUntried(dedupe(cands), tried)
}

// mostInflatedTable returns the table whose per-query cost grew the most
// relative to baseline, with the growth factor.
func mostInflatedTable(ctx *core.FailureContext) (string, float64) {
	best, bestInfl := "", 1.0
	for _, name := range ctx.Schema.Names() {
		parts := metrics.ParseName(name)
		if len(parts) != 4 || parts[0] != "db" || parts[1] != "table" || parts[3] != "costops" {
			continue
		}
		t := parts[2]
		costCur := ctx.CurrentMean(name)
		qCur := ctx.CurrentMean("db.table." + t + ".queries")
		costBase := ctx.BaselineMean(name)
		qBase := ctx.BaselineMean("db.table." + t + ".queries")
		if qCur < 1 || qBase < 1 || costBase <= 0 {
			continue
		}
		infl := (costCur / qCur) / (costBase / qBase)
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

// Recommend implements core.Approach. The rule list is fixed and ordered;
// thresholds reference absolute values a 2007 DBA would have written down.
func (m *ManualRules) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	// Threshold rules read the live gauges, as a rules engine would.
	cur := func(name string) float64 { return ctx.Latest(name) }
	var cands []candidate
	rule := func(cond bool, a core.Action, prio float64) {
		if cond {
			cands = append(cands, candidate{action: a, score: prio})
		}
	}
	// "if the miss rate in the database buffer-cache ... exceeds 35%, then
	// increase the cache size" (§3's example rule).
	rule(cur("db.buffer.hitratio") < 0.65, core.Action{Fix: catalog.FixRepartitionMemory}, 9)
	rule(cur("app.heap.occ") > 0.85, core.Action{Fix: catalog.FixRebootAppTier, Target: "app"}, 8)
	rule(cur("db.lockwait.avgms") > 40, core.Action{Fix: catalog.FixRepartitionTable, Target: worstTableByMean(ctx, "lockms")}, 7)
	rule(cur("db.cpu.util") > 0.95, core.Action{Fix: catalog.FixProvisionTier, Target: "db"}, 6)
	rule(cur("web.cpu.util") > 0.95, core.Action{Fix: catalog.FixProvisionTier, Target: "web"}, 5)
	rule(cur("app.cpu.util") > 0.95, core.Action{Fix: catalog.FixProvisionTier, Target: "app"}, 4)
	rule(cur("app.threads.util") > 0.95, core.Action{Fix: catalog.FixRebootAppTier, Target: "app"}, 3)
	rule(cur("svc.errorrate") > 0.05, core.Action{Fix: catalog.FixRebootAppTier, Target: "app"}, 2)
	// The coarse universal fallback.
	cands = append(cands, candidate{action: core.Action{Fix: catalog.FixFullRestart}, score: 0.5})
	return pickUntried(dedupe(cands), tried)
}

// worstTableByMean returns the table with the highest current-window mean
// of the given field (manual rules read gauges, not baselines).
func worstTableByMean(ctx *core.FailureContext, field string) string {
	best, bestV := "items", 0.0
	for i, name := range ctx.Schema.Names() {
		parts := metrics.ParseName(name)
		if len(parts) == 4 && parts[0] == "db" && parts[1] == "table" && parts[3] == field {
			col := ctx.Recent.ColIdx(i)
			v := stats.Mean(col)
			if v > bestV {
				best, bestV = parts[2], v
			}
		}
	}
	return best
}
