package diagnose

import (
	"context"

	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/metrics"
	"selfheal/internal/targets"
)

// failingContext builds a real FailureContext by injecting f into a fresh
// environment and waiting for detection.
func failingContext(t *testing.T, seed int64, f faults.Fault) *core.FailureContext {
	t.Helper()
	cfg := core.DefaultHarnessConfig()
	cfg.Seed = seed
	tg, err := targets.NewAuction(targets.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewTargetHarness(tg, cfg)
	fctx, _, ok := h.LabeledFailure(context.Background(), f, 2500)
	if !ok {
		t.Fatalf("fault %v never became SLO-visible", f.Kind())
	}
	return fctx
}

func TestAnomalyLocalizesDeadlock(t *testing.T) {
	ctx := failingContext(t, 31, faults.NewDeadlock("ItemBean"))
	a := NewAnomaly()
	action, _, ok := a.Recommend(ctx, nil)
	if !ok {
		t.Fatal("anomaly abstained on a deadlock")
	}
	if action.Fix != catalog.FixMicrorebootEJB || action.Target != "ItemBean" {
		t.Errorf("recommended %v, want microreboot-ejb(ItemBean)", action)
	}
}

func TestAnomalyFindsBufferContention(t *testing.T) {
	ctx := failingContext(t, 33, faults.NewBufferContention(0.85))
	a := NewAnomaly()
	action, _, ok := a.Recommend(ctx, nil)
	if !ok {
		t.Fatal("anomaly abstained")
	}
	if action.Fix != catalog.FixRepartitionMemory {
		t.Errorf("recommended %v, want repartition-memory", action)
	}
}

func TestAnomalyRespectsTriedSet(t *testing.T) {
	ctx := failingContext(t, 31, faults.NewDeadlock("ItemBean"))
	a := NewAnomaly()
	first, _, _ := a.Recommend(ctx, nil)
	second, _, ok := a.Recommend(ctx, []core.Action{first})
	if ok && second == first {
		t.Error("anomaly repeated a tried action")
	}
}

func TestCorrelationFindsStaleStats(t *testing.T) {
	ctx := failingContext(t, 35, faults.NewStaleStats("items", 9))
	c := NewCorrelation()
	action, _, ok := c.Recommend(ctx, nil)
	if !ok {
		t.Fatal("correlation abstained")
	}
	if action.Fix != catalog.FixUpdateStats || action.Target != "items" {
		t.Errorf("recommended %v, want update-statistics(items)", action)
	}
}

func TestCorrelationNeedsFailingHistory(t *testing.T) {
	// A healthy context: no failure ticks in history → abstain.
	cfg := core.DefaultHarnessConfig()
	cfg.Seed = 37
	h := core.NewHarness(cfg)
	h.StepN(100)
	ctx := h.BuildContext()
	c := NewCorrelation()
	if _, _, ok := c.Recommend(ctx, nil); ok {
		t.Error("correlation recommended a fix with no failures in history")
	}
}

// TestCorrelationAbstainsWithoutOutcomes: a target that reports no svc.*
// outcome columns (the process target's metrics are proc.*) gives
// correlation analysis no failure indicator, so it abstains rather than
// indexing columns that are not there.
func TestCorrelationAbstainsWithoutOutcomes(t *testing.T) {
	schema := metrics.NewSchema([]string{"proc.svc.up", "proc.svc.alive"})
	hist := metrics.NewSeries(schema)
	for tick := range int64(60) {
		v := float64(tick % 2)
		hist.Append(tick, []float64{v, v})
	}
	ctx := &core.FailureContext{Symptom: []float64{-8, -8}, Schema: schema, Recent: hist, History: hist}
	if action, _, ok := NewCorrelation().Recommend(ctx, nil); ok {
		t.Errorf("correlation recommended %v with no outcome columns", action)
	}
}

func TestBottleneckFindsSurgedTier(t *testing.T) {
	ctx := failingContext(t, 39, faults.NewBottleneck(catalog.TierDB, 3.9, 1200))
	b := NewBottleneck()
	action, _, ok := b.Recommend(ctx, nil)
	if !ok {
		t.Fatal("bottleneck analysis abstained on a saturated tier")
	}
	okFix := action.Fix == catalog.FixProvisionTier && action.Target == "db"
	// Saturation through the buffer path is an acceptable first answer.
	if !okFix && action.Fix != catalog.FixRepartitionMemory {
		t.Errorf("recommended %v, want provision-tier(db)", action)
	}
}

func TestBottleneckSeesThroughStaleStats(t *testing.T) {
	// A saturated database caused by a bad plan is not a capacity problem:
	// the analysis should prefer update-statistics over provisioning
	// (Example 4 / ref [1]).
	ctx := failingContext(t, 41, faults.NewStaleStats("bids", 10))
	b := NewBottleneck()
	action, _, ok := b.Recommend(ctx, nil)
	if !ok {
		t.Fatal("abstained")
	}
	if action.Fix != catalog.FixUpdateStats {
		t.Errorf("recommended %v, want update-statistics first", action)
	}
}

func TestBottleneckAbstainsOnExceptions(t *testing.T) {
	// An unhandled exception has no resource signature; bottleneck
	// analysis should abstain (its Table 2 weakness).
	ctx := failingContext(t, 43, faults.NewException("BidBean", 0.8))
	b := NewBottleneck()
	if action, _, ok := b.Recommend(ctx, nil); ok {
		t.Errorf("bottleneck analysis recommended %v for an exception", action)
	}
}

func TestManualRulesBufferRule(t *testing.T) {
	// The §3 example rule: buffer-cache miss rate too high → grow cache.
	ctx := failingContext(t, 45, faults.NewBufferContention(0.85))
	m := NewManualRules()
	action, _, ok := m.Recommend(ctx, nil)
	if !ok {
		t.Fatal("manual rules abstained")
	}
	if action.Fix != catalog.FixRepartitionMemory {
		t.Errorf("recommended %v, want repartition-memory", action)
	}
}

func TestManualRulesUniversalFallback(t *testing.T) {
	// A failure no rule anticipates falls through to the coarse universal
	// fix ("do a full restart if any failure is observed").
	ctx := failingContext(t, 47, faults.NewException("QueryBean", 0.7))
	m := NewManualRules()
	var tried []core.Action
	var last core.Action
	for i := 0; i < 10; i++ {
		action, _, ok := m.Recommend(ctx, tried)
		if !ok {
			break
		}
		tried = append(tried, action)
		last = action
	}
	if last.Fix != catalog.FixFullRestart {
		t.Errorf("fallback chain ended with %v, want full-service-restart", last)
	}
}

func TestApproachesAreStateless(t *testing.T) {
	// Observe must not change a diagnosis approach's recommendation —
	// the paper's point that they do not learn.
	ctx := failingContext(t, 49, faults.NewBufferContention(0.8))
	a := NewAnomaly()
	before, _, _ := a.Recommend(ctx, nil)
	a.Observe(ctx, before, false)
	a.Observe(ctx, before, true)
	after, _, _ := a.Recommend(ctx, nil)
	if before != after {
		t.Error("anomaly approach changed behaviour after Observe")
	}
}

func TestPathAnalysisLocalizesException(t *testing.T) {
	ctx := failingContext(t, 51, faults.NewException("CommentBean", 0.85))
	p := NewPathAnalysis()
	action, _, ok := p.Recommend(ctx, nil)
	if !ok {
		t.Fatal("path analysis abstained on an exception storm")
	}
	if action.Fix != catalog.FixMicrorebootEJB || action.Target != "CommentBean" {
		t.Errorf("recommended %v, want microreboot-ejb(CommentBean)", action)
	}
}

func TestPathAnalysisAbstainsOnPerformanceFaults(t *testing.T) {
	// Stale statistics slow requests down but do not fail paths: nothing
	// for path inference to see.
	ctx := failingContext(t, 53, faults.NewStaleStats("items", 9))
	p := NewPathAnalysis()
	if action, _, ok := p.Recommend(ctx, nil); ok {
		t.Errorf("path analysis recommended %v for a pure performance fault", action)
	}
}
