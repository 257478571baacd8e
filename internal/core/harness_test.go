package core_test

import (
	"testing"

	"selfheal/internal/core"
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
