package core_test

import (
	"context"
	"runtime"
	"testing"

	"selfheal/internal/core"
	"selfheal/internal/detect"
	"selfheal/internal/diagnose"
	"selfheal/internal/service"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
	"selfheal/internal/trace"
	"selfheal/internal/workload"
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

// countingTarget is the auction simulator, every optional capability
// included, counting the calls a harness makes for the optional evidence.
type countingTarget struct {
	*targets.Auction
	callMatrix, samplePaths int
}

func (c *countingTarget) CallMatrix() [][]float64 {
	c.callMatrix++
	return c.Auction.CallMatrix()
}

func (c *countingTarget) SamplePaths() []trace.Path {
	c.samplePaths++
	return c.Auction.SamplePaths()
}

// TestRetentionFollowsTheApproach: a harness gathers the optional evidence
// its healer's approach declares, and only that. It keeps HistoryTicks
// rows of metric history only for a reader of History, correlation
// analysis alone or inside a Hybrid; under any other approach it keeps,
// once the warm-up has frozen the baseline, the WindowTicks detection
// window (15 rows at the defaults), which is also History, or the rows a
// direct reader declared through RetainRows. It asks the target for a call matrix every tick only
// for a reader of the χ² localization, and samples paths only for path
// analysis. A FixSym harness then runs 200 episodes without allocating a
// history block or asking for either.
func TestRetentionFollowsTheApproach(t *testing.T) {
	cfg := core.DefaultHarnessConfig()
	fixsym := func() *core.FixSym { return core.NewFixSym(synopsis.NewNearestNeighbor()) }
	for _, tc := range []struct {
		name         string
		approach     core.Approach
		readRows     int // declared through RetainRows
		rows, hist   int
		calls, paths bool
		episodes     bool
	}{
		{"fixsym", fixsym(), 0, cfg.WindowTicks, cfg.WindowTicks, false, false, true},
		{"fixsym with a direct reader", fixsym(), 120, 120, cfg.WindowTicks, false, false, false},
		{"path analysis", diagnose.NewPathAnalysis(), 0, cfg.WindowTicks, cfg.WindowTicks, false, true, false},
		{"hybrid without correlation", core.NewHybrid(fixsym(), diagnose.NewAnomaly(), diagnose.NewBottleneck()), 0, cfg.WindowTicks, cfg.WindowTicks, true, false, false},
		{"correlation", diagnose.NewCorrelation(), 0, cfg.HistoryTicks, cfg.HistoryTicks, true, false, false},
		{"hybrid with correlation", core.NewHybrid(fixsym(), diagnose.NewCorrelation()), 0, cfg.HistoryTicks, cfg.HistoryTicks, true, false, false},
	} {
		tg := &countingTarget{Auction: targets.NewAuctionWith(service.DefaultConfig(), workload.BiddingMix(), cfg.Seed)}
		h := core.NewTargetHarness(tg, cfg)
		if n := h.Coll.Series().Len(); n != cfg.WarmupTicks {
			t.Fatalf("%s: %d rows after the warm-up, want the %d-row window the baseline froze", tc.name, n, cfg.WarmupTicks)
		}
		hl := core.NewHealer(h, tc.approach, core.DefaultHealerConfig())
		h.RetainRows(tc.readRows)
		tg.callMatrix = 0
		series := h.Coll.Series()
		const steps = 10000
		for i := 0; i < steps; i++ {
			h.Step()
			if series.Len() > tc.rows {
				t.Fatalf("%s, tick %d: %d rows retained, want at most %d", tc.name, i, series.Len(), tc.rows)
			}
		}
		if series.Len() != tc.rows {
			t.Errorf("%s: %d rows retained, want %d", tc.name, series.Len(), tc.rows)
		}
		if want := map[bool]int{true: steps}[tc.calls]; tg.callMatrix != want {
			t.Errorf("%s: %d call matrices over %d ticks, want %d", tc.name, tg.callMatrix, steps, want)
		}
		fctx := h.BuildContext()
		if got := fctx.History.Len(); got != tc.hist {
			t.Errorf("%s: History holds %d rows, want %d", tc.name, got, tc.hist)
		}
		if got := fctx.CallCallees != nil; got != tc.calls {
			t.Errorf("%s: context carries the call-matrix localization: %v, want %v", tc.name, got, tc.calls)
		}
		if got := fctx.Paths != nil; got != tc.paths || tg.samplePaths != map[bool]int{true: 1}[tc.paths] {
			t.Errorf("%s: context carries paths: %v after %d samples, want %v", tc.name, got, tg.samplePaths, tc.paths)
		}
		if tc.episodes {
			fixSymEpisodes(t, hl, tg)
		}
	}
}

// fixSymEpisodes runs 200 FixSym episodes, after 50 to warm up, and checks
// that they neither allocate a history block nor gather evidence FixSym
// does not read, and that they allocate at most 40 KB each. A block is
// 53 KB, so one pinned by each detection alone breaks the bound: the
// episodes here allocate ≈19 KB each, ≈79 KB when every detection pins a
// block, and ≈76 KB when every detection samples paths. The row each tick appends is recorded; once the warm-up has
// cycled every block, a row slot never seen before is in a new block. The records keep every block they
// point into alive, so no new block can take an old one's address.
func fixSymEpisodes(t *testing.T, hl *core.Healer, tg *countingTarget) {
	ctx := context.Background()
	gen, err := tg.NewFaults(100)
	if err != nil {
		t.Fatal(err)
	}
	series := hl.H.Coll.Series()
	slots := map[*float64]bool{}
	newSlots := 0
	hl.H.OnStep = func(detect.Sample) {
		if row := &series.Row(series.Len() - 1)[0]; !slots[row] {
			slots[row] = true
			newSlots++
		}
	}
	for i := 0; i < 50; i++ {
		hl.RunEpisode(ctx, gen.Next())
	}
	newSlots, tg.callMatrix, tg.samplePaths = 0, 0, 0
	const episodes = 200
	detected := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < episodes; i++ {
		if hl.RunEpisode(ctx, gen.Next()).Detected {
			detected++
		}
	}
	runtime.ReadMemStats(&after)
	hl.H.OnStep = nil
	if detected < episodes/2 {
		t.Fatalf("only %d of %d episodes detected", detected, episodes)
	}
	if newSlots > 0 {
		t.Errorf("fixsym: %d episodes wrote %d rows into new history blocks", episodes, newSlots)
	}
	if tg.callMatrix != 0 || tg.samplePaths != 0 {
		t.Errorf("fixsym: %d episodes asked for %d call matrices and %d path samples, want none", episodes, tg.callMatrix, tg.samplePaths)
	}
	perEpisode := (after.TotalAlloc - before.TotalAlloc) / episodes
	t.Logf("fixsym: %d B allocated per episode, %d of %d detected", perEpisode, detected, episodes)
	if perEpisode > 40<<10 {
		t.Errorf("fixsym: %d B allocated per episode, bound is 40 KB", perEpisode)
	}
}
