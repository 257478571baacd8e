package core_test

import (
	"context"
	"reflect"
	"testing"

	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/targets"
)

// TestHistoryIsASlidingWindow steps a harness for twenty times its
// history bound: the series then holds exactly the last HistoryTicks rows,
// and a context built at any point sees that same window.
func TestHistoryIsASlidingWindow(t *testing.T) {
	cfg := core.DefaultHarnessConfig()
	cfg.HistoryTicks = 300
	h := core.NewHarness(cfg)
	early := h.BuildContext().History
	first, n := early.Time(0), early.Len()
	for i := 0; i < 20*cfg.HistoryTicks; i++ {
		h.Step()
		if got := h.Coll.Series().Len(); got > cfg.HistoryTicks {
			t.Fatalf("tick %d: %d rows retained, bound is %d", i, got, cfg.HistoryTicks)
		}
	}
	series := h.Coll.Series()
	now := h.Target.Now()
	if series.Len() != cfg.HistoryTicks || series.Time(series.Len()-1) != now || series.Time(0) != now-int64(cfg.HistoryTicks)+1 {
		t.Errorf("window holds %d rows over ticks %d..%d at tick %d", series.Len(), series.Time(0), series.Time(series.Len()-1), now)
	}
	if hist := h.BuildContext().History; hist.Len() != cfg.HistoryTicks || hist.Time(0) != series.Time(0) {
		t.Errorf("context history holds %d rows from tick %d", hist.Len(), hist.Time(0))
	}
	// The view taken before all of that still reads its own rows.
	if early.Len() != n || early.Time(0) != first {
		t.Errorf("early view now holds %d rows from tick %d, was %d from %d", early.Len(), early.Time(0), n, first)
	}
}

// opaqueTarget shows the harness the Target interface and nothing else:
// the wrapped target's optional capabilities, CallMatrixSupport among
// them, are hidden.
type opaqueTarget struct{ targets.Target }

// TestDerivedCallSupportMatchesReported: a target that does not report its
// call topology gets the full rows×cols support, and the χ² localization
// and the symptom vector come out exactly as they do for the same target
// reporting its sparse support — the cells outside the support only ever
// hold zeros.
func TestDerivedCallSupportMatchesReported(t *testing.T) {
	run := func(hide bool) *core.FailureContext {
		a, err := targets.NewAuction(targets.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var tg targets.Target = a
		if hide {
			tg = opaqueTarget{a}
		}
		h := core.NewTargetHarness(tg, core.DefaultHarnessConfig())
		h.StepN(200) // grow the call baseline
		fctx, _, ok := h.LabeledFailure(context.Background(), faults.NewDeadlock("ItemBean"), 200)
		if !ok {
			t.Fatal("deadlock not detected")
		}
		return fctx
	}
	reported, derived := run(false), run(true)
	if len(reported.CallAnomalies) == 0 {
		t.Fatal("no call-matrix anomalies for the deadlocked component")
	}
	if !reflect.DeepEqual(reported.CallAnomalies, derived.CallAnomalies) {
		t.Errorf("call anomalies differ:\n reported support: %v\n derived support:  %v", reported.CallAnomalies, derived.CallAnomalies)
	}
	if !reflect.DeepEqual(reported.Symptom, derived.Symptom) {
		t.Errorf("symptom vectors differ:\n reported support: %v\n derived support:  %v", reported.Symptom, derived.Symptom)
	}
}
