package core

import (
	"context"
	"testing"

	"selfheal/internal/detect"
	"selfheal/internal/faults"
	"selfheal/internal/service"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
	"selfheal/internal/workload"
)

// scriptedTarget wraps the auction simulator and replaces fault injection
// with a script: the n-th tick after Inject is an outage exactly when
// bad(n) says so. Any recovery action ends the script, so a detected
// episode heals on its first fix or escalation.
type scriptedTarget struct {
	targets.Target
	bad        func(n int64) bool
	injectedAt int64
	armed      bool
}

func (s *scriptedTarget) Inject(targets.Fault) error {
	s.injectedAt, s.armed = s.Now(), true
	return nil
}

func (s *scriptedTarget) Tick() detect.Sample {
	st := s.Target.Tick()
	if s.armed && s.bad(s.Now()-s.injectedAt) {
		st.Down = true
	}
	return st
}

func (s *scriptedTarget) Apply(a targets.Action) (int64, error) {
	s.armed = false
	return s.Target.Apply(a)
}

// scriptedEpisode runs one RunEpisode against a scripted fault and
// returns the episode and the ticks it took.
func scriptedEpisode(t *testing.T, ctx context.Context, historyTicks, budget int, bad func(n int64) bool) (Episode, int64) {
	t.Helper()
	cfg := DefaultHarnessConfig()
	cfg.HistoryTicks = historyTicks
	h := NewTargetHarness(&scriptedTarget{Target: targets.NewAuctionWith(service.DefaultConfig(), workload.BiddingMix(), cfg.Seed), bad: bad}, cfg)
	hcfg := DefaultHealerConfig()
	hcfg.EpisodeBudget = budget
	hl := NewHealer(h, NewFixSym(synopsis.NewNearestNeighbor()), hcfg)
	start := h.Target.Now()
	ep := hl.RunEpisode(ctx, faults.NewStaleStats("items", 6))
	return ep, h.Target.Now() - start
}

func never(int64) bool { return false }

// TestUndetectedWaitEndsAtHistory: the wait for detection lasts
// min(EpisodeBudget, HistoryTicks) ticks, and a failure surfacing just
// inside that bound is still caught.
func TestUndetectedWaitEndsAtHistory(t *testing.T) {
	history := DefaultHarnessConfig().HistoryTicks
	budget := DefaultHealerConfig().EpisodeBudget
	if budget <= history {
		t.Fatalf("defaults no longer exercise the bound: budget %d, history %d", budget, history)
	}
	for _, tc := range []struct {
		name            string
		history, budget int
		want            int64
	}{
		{"history bounds", history, budget, int64(history)},
		{"budget bounds", history, history / 2, int64(history / 2)},
	} {
		ep, ticks := scriptedEpisode(t, context.Background(), tc.history, tc.budget, never)
		if ep.Detected || ticks != tc.want {
			t.Errorf("%s: detected=%v after %d ticks, want undetected after %d", tc.name, ep.Detected, ticks, tc.want)
		}
	}

	// Visible 40 ticks before the bound: DetectK outage ticks later the
	// monitor declares it, still inside the wait.
	from := int64(history - 40)
	ep, _ := scriptedEpisode(t, context.Background(), history, budget, func(n int64) bool { return n >= from })
	if !ep.Detected || !ep.Recovered {
		t.Fatalf("late failure: detected=%v recovered=%v", ep.Detected, ep.Recovered)
	}
	if lag := ep.DetectedAt - ep.InjectedAt; lag < from || lag >= int64(history) {
		t.Errorf("late failure detected %d ticks after injection, want in [%d, %d)", lag, from, history)
	}
}

// TestLatentSplit: an undetected episode is Latent only when its wait saw
// no violating tick at all; a fault that violated fewer than DetectK
// ticks is a miss, and a cancelled wait is neither.
func TestLatentSplit(t *testing.T) {
	const history = 300
	k := int64(DefaultHarnessConfig().DetectK)
	budget := DefaultHealerConfig().EpisodeBudget

	ep, _ := scriptedEpisode(t, context.Background(), history, budget, never)
	if ep.Detected || !ep.Latent {
		t.Errorf("never-violating fault: detected=%v latent=%v, want latent", ep.Detected, ep.Latent)
	}

	ep, _ = scriptedEpisode(t, context.Background(), history, budget, func(n int64) bool { return n >= 1 && n < k })
	if ep.Detected || ep.Latent {
		t.Errorf("%d violations under DetectK %d: detected=%v latent=%v, want a miss", k-1, k, ep.Detected, ep.Latent)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ep, ticks := scriptedEpisode(t, ctx, history, budget, never)
	if ep.Detected || ep.Latent || ticks != 0 {
		t.Errorf("cancelled wait: detected=%v latent=%v after %d ticks", ep.Detected, ep.Latent, ticks)
	}
}

// recordingApproach counts the learn events it receives.
type recordingApproach struct{ observed int }

func (*recordingApproach) Name() string { return "recording" }

func (*recordingApproach) Recommend(*FailureContext, []Action) (Action, float64, bool) {
	return Action{}, 0, false
}

func (r *recordingApproach) Observe(*FailureContext, Action, bool) { r.observed++ }

// TestFlushLearnedDropsContexts: once the learn buffer drains — delivered
// or dropped by a frozen gate — no slot of its backing array still points
// at a FailureContext, whose History would pin old metric blocks.
func TestFlushLearnedDropsContexts(t *testing.T) {
	assertClear := func(t *testing.T, hl *Healer) {
		t.Helper()
		for i, o := range hl.pending[:cap(hl.pending)] {
			if o.Ctx != nil {
				t.Errorf("slot %d of %d still holds a context", i, cap(hl.pending))
			}
		}
	}
	for _, batch := range []int{1, 3} {
		rec := &recordingApproach{}
		hl := &Healer{Cfg: HealerConfig{LearnBatch: batch}, Approach: rec}
		for ep := 0; ep < batch; ep++ {
			hl.observe(&FailureContext{}, Action{}, false)
			hl.observe(&FailureContext{}, Action{}, true)
			hl.endEpisode()
		}
		if rec.observed != 2*batch || len(hl.pending) != 0 {
			t.Fatalf("LearnBatch %d: %d delivered, %d pending", batch, rec.observed, len(hl.pending))
		}
		assertClear(t, hl)
	}

	rec := &recordingApproach{}
	hl := &Healer{Cfg: HealerConfig{LearnBatch: 3}, Approach: rec, Learn: NewGate()}
	hl.observe(&FailureContext{}, Action{}, true)
	hl.observe(&FailureContext{}, Action{}, true)
	hl.Learn.Freeze(true)
	hl.FlushLearned()
	if rec.observed != 0 || len(hl.pending) != 0 {
		t.Fatalf("frozen flush: %d delivered, %d pending", rec.observed, len(hl.pending))
	}
	assertClear(t, hl)
}
