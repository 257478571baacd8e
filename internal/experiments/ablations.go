package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/diagnose"
	"selfheal/internal/faults"
	"selfheal/internal/metrics"
	"selfheal/internal/stats"
	"selfheal/internal/synopsis"
)

// This file implements the research-agenda ablations of the paper's §5:
// hybrid combination (§5.1), online learning and confidence ranking
// (§5.2), learning from negative data (§5.2), proactive healing (§5.3) and
// control-theoretic stability analysis (§5.4).

// HybridAblation compares FixSym alone, anomaly detection alone, and the
// hybrid on a stream that begins with novel failures — §5.1's claim that
// the combination masks individual weaknesses.
type HybridAblation struct {
	Names      []string
	Escalated  []float64
	MeanTTR    []float64
	FirstRight []float64
}

// RunHybridAblation drives each approach through the same fault stream.
func RunHybridAblation(seed int64, episodes int) HybridAblation {
	mk := []func() core.Approach{
		func() core.Approach { return core.NewFixSym(synopsis.NewNearestNeighbor()) },
		func() core.Approach { return diagnose.NewAnomaly() },
		newHybrid,
	}
	ctx := context.Background()
	res := HybridAblation{}
	for _, make := range mk {
		a := make()
		gen := faults.NewGenerator(seed+11, LearningKinds()...)
		var stats selfheal.FleetStats
		for i := 0; i < episodes; i++ {
			sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed+int64(i)*211), selfheal.WithApproachInstance(a))
			stats.Add(sys.HealEpisode(ctx, gen.Next()))
		}
		res.Names = append(res.Names, a.Name())
		res.Escalated = append(res.Escalated, perDetected(stats.Escalated, stats))
		res.MeanTTR = append(res.MeanTTR, stats.MeanTTR)
		res.FirstRight = append(res.FirstRight, perDetected(stats.CorrectFirst, stats))
	}
	return res
}

// Format renders the hybrid ablation.
func (r HybridAblation) Format() string {
	var b strings.Builder
	b.WriteString("Ablation §5.1 — hybrid vs. components (cold start stream)\n")
	fmt.Fprintf(&b, "%-24s %12s %12s %12s\n", "approach", "first-right", "escalated", "mean TTR")
	for i, n := range r.Names {
		fmt.Fprintf(&b, "%-24s %11.0f%% %11.0f%% %11.0fs\n", n, 100*r.FirstRight[i], 100*r.Escalated[i], r.MeanTTR[i])
	}
	return b.String()
}

// OnlineDriftAblation compares a frozen synopsis with a sliding-window one
// when the workload drifts under a stale deployment-time baseline (§5.2).
type OnlineDriftAblation struct {
	FrozenAccuracy float64
	OnlineAccuracy float64
	Episodes       int
}

// RunOnlineDriftAblation trains both synopses on undrifted episodes, then
// streams drifted episodes: the online synopsis re-learns signatures
// expressed against the stale baseline; the frozen one keeps predicting
// from obsolete ones.
func RunOnlineDriftAblation(seed int64, episodes int) OnlineDriftAblation {
	ctx := context.Background()
	frozen := synopsis.NewNearestNeighbor()
	online := slidingWindow{synopsis.NewNearestNeighbor(), episodes/2 + 4}
	ref := buildReferenceBaseline(seed)
	gen := faults.NewGenerator(seed+3, LearningKinds()...)

	res := OnlineDriftAblation{Episodes: episodes}
	var frozenOK, onlineOK, n int
	for i := 0; i < episodes; i++ {
		// Capped below saturation: the scenario tests stale baselines,
		// not overload.
		drift := 0.025 * float64(i)
		if drift > 0.4 {
			drift = 0.4
		}
		f := gen.Next()
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed+int64(i)*173))
		driftTo(sys, 1+drift, ref)
		fctx, want, ok := sys.LabeledFailure(ctx, f, 2500)
		if !ok {
			continue
		}
		n++
		if sug, ok := frozen.Suggest(fctx.Features(), nil); ok && sug.Action.Fix == want.Fix {
			frozenOK++
		}
		if sug, ok := online.Suggest(fctx.Features(), nil); ok && sug.Action.Fix == want.Fix {
			onlineOK++
		}
		p := synopsis.Point{X: fctx.Features(), Action: want, Success: true}
		// The frozen synopsis stops learning after the undrifted prefix;
		// the online one keeps folding new signatures in and forgetting
		// old ones.
		if drift < 0.1 {
			frozen.Add(p)
		}
		online.Add(p)
	}
	if n > 0 {
		res.FrozenAccuracy = float64(frozenOK) / float64(n)
		res.OnlineAccuracy = float64(onlineOK) / float64(n)
	}
	return res
}

// slidingWindow is the online synopsis of the drift ablation: a nearest
// neighbor that holds only its window most recent successes, so signatures
// learned before the drift age out (§5.2's "kept up to date efficiently
// as new data becomes available").
type slidingWindow struct {
	*synopsis.NearestNeighbor
	window int
}

// Add folds p in, forgetting the oldest success once more than window
// are held.
func (s slidingWindow) Add(p synopsis.Point) {
	s.NearestNeighbor.Add(p)
	if s.TrainingSize() > s.window {
		s.Forget(s.window)
	}
}

// Format renders the drift ablation.
func (r OnlineDriftAblation) Format() string {
	return fmt.Sprintf("Ablation §5.2 — online learning under drift: frozen=%.0f%% online=%.0f%% (%d episodes)\n",
		100*r.FrozenAccuracy, 100*r.OnlineAccuracy, r.Episodes)
}

// ConfidenceAblation measures ranked multi-fix attempts (naive-Bayes
// confidences, §5.2) against unranked suggestion order: attempts needed
// until recovery.
type ConfidenceAblation struct {
	RankedMeanAttempts   float64
	UnrankedMeanAttempts float64
}

// RunConfidenceAblation trains a NB synopsis, then heals a stream using
// (a) its confidence-ranked suggestions and (b) a deliberately unranked
// (arbitrary exemplar order) policy.
func RunConfidenceAblation(seed int64, episodes int) ConfidenceAblation {
	train := BuildTestSet(seed+17, 40, LearningKinds())
	nb := synopsis.NewNaiveBayes()
	for _, p := range train {
		nb.Add(p)
	}
	ctx := context.Background()

	run := func(a core.Approach) float64 {
		var stats selfheal.FleetStats
		gen2 := faults.NewGenerator(seed+29, LearningKinds()...)
		for i := 0; i < episodes; i++ {
			sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed+int64(i)*307), selfheal.WithApproachInstance(a))
			stats.Add(sys.HealEpisode(ctx, gen2.Next()))
		}
		return perDetected(stats.Attempts, stats)
	}
	ranked := run(core.NewFixSym(nb))
	unranked := run(&unrankedApproach{syn: nb})
	return ConfidenceAblation{RankedMeanAttempts: ranked, UnrankedMeanAttempts: unranked}
}

// unrankedApproach deliberately inverts the synopsis ranking, modeling a
// policy without confidence ordering.
type unrankedApproach struct {
	syn synopsis.Synopsis
}

func (u *unrankedApproach) Name() string { return "unranked" }

func (u *unrankedApproach) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	ranked := u.syn.RankK(ctx.Features(), -1)
	seen := map[string]bool{}
	for _, a := range tried {
		seen[a.Key()] = true
	}
	// Walk the ranking from the bottom.
	for i := len(ranked) - 1; i >= 0; i-- {
		if !seen[ranked[i].Action.Key()] {
			return ranked[i].Action, ranked[i].Confidence, true
		}
	}
	return core.Action{}, 0, false
}

func (u *unrankedApproach) Observe(ctx *core.FailureContext, a core.Action, ok bool) {
	u.syn.Add(synopsis.Point{X: ctx.Features(), Action: a, Success: ok})
}

// Format renders the confidence ablation.
func (r ConfidenceAblation) Format() string {
	return fmt.Sprintf("Ablation §5.2 — confidence ranking: ranked=%.2f attempts/failure, anti-ranked=%.2f\n",
		r.RankedMeanAttempts, r.UnrankedMeanAttempts)
}

// NegativeDataAblation measures learning from unsuccessful fixes (§5.2):
// the paper's "ambiguous and inaccurate data" scenario — an unsuccessful
// fix "mistakenly classified as correct" has poisoned the synopsis, and
// recurrences of the failure keep hitting the bad exemplar first. The
// negative-aware variant damps the poisoned signature after its failures;
// the plain variant repeats the mistake forever.
type NegativeDataAblation struct {
	// First-suggestion accuracy over the recurrence stream.
	WithNegatives    float64
	WithoutNegatives float64
}

// RunNegativeDataAblation poisons both synopses with one mislabeled
// success, then streams recurrences of the real failure, recording only
// the failed-attempt feedback (no new successes, isolating the negative
// channel). The plain synopsis repeats the poisoned suggestion on every
// recurrence; the negative-aware one damps it after the first failure.
func RunNegativeDataAblation(seed int64, episodes int) NegativeDataAblation {
	gen := faults.NewGenerator(seed+41, catalog.FaultBufferContention)
	// Recurrence stream of labeled failures.
	var stream []synopsis.Point
	for i := 0; len(stream) < episodes && i < episodes*4; i++ {
		if p, ok := LabeledPoint(seed+100+int64(i)*13, gen.NextOfKind(catalog.FaultBufferContention)); ok {
			stream = append(stream, p)
		}
	}
	poisonAction := core.Action{Fix: catalog.FixUpdateStats, Target: "items"}

	run := func(useNeg bool) float64 {
		nn := synopsis.NewNearestNeighbor()
		nn.UseNegatives = useNeg
		if len(stream) == 0 {
			return 0
		}
		// One genuine signature plus the mislabeled one right on top of it.
		genuine := stream[0]
		nn.Add(genuine)
		poison := genuine
		poison.Action = poisonAction
		nn.Add(poison)

		correct := 0
		for _, p := range stream[1:] {
			sug, ok := nn.Suggest(p.X, nil)
			if ok && sug.Action.Fix == p.Action.Fix {
				correct++
			} else if ok {
				// The suggested fix would fail against the live fault;
				// record the unsuccessful attempt.
				nn.Add(synopsis.Point{X: p.X, Action: sug.Action, Success: false})
			}
		}
		if len(stream) <= 1 {
			return 0
		}
		return float64(correct) / float64(len(stream)-1)
	}
	return NegativeDataAblation{WithNegatives: run(true), WithoutNegatives: run(false)}
}

// Format renders the negative-data ablation.
func (r NegativeDataAblation) Format() string {
	return fmt.Sprintf("Ablation §5.2 — negative training data (poisoned synopsis): first-suggestion accuracy with=%.0f%% without=%.0f%%\n",
		100*r.WithNegatives, 100*r.WithoutNegatives)
}

// ProactiveAblation compares reactive healing of software aging with
// forecast-driven preemptive reboots (§5.3): SLO-violating ticks over the
// same leak scenario.
type ProactiveAblation struct {
	ReactiveBadTicks  int
	ProactiveBadTicks int
	ProactiveActions  int
}

// RunProactiveAblation injects a slow leak and runs the horizon both ways.
func RunProactiveAblation(seed int64, horizonTicks int) ProactiveAblation {
	ctx := context.Background()
	res := ProactiveAblation{}

	// Reactive: the leak runs to SLO violation/crash, then the
	// administrator-grade fix is applied (best case for the reactive
	// baseline: no misdiagnosis). Count violating ticks.
	{
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed))
		t := sys.Target()
		inject(sys, faults.NewAging(catalog.TierApp, 0.004))
		step := func() {
			if sys.Cfg.SLO.Violated(sys.Step()) {
				res.ReactiveBadTicks++
			}
		}
		start := t.Now()
		for t.Now()-start < int64(horizonTicks) {
			step()
			if sys.Monitor.Failing() {
				if action, ok := t.CorrectFix(); ok {
					if settle, err := t.Apply(action); err == nil {
						for i := int64(0); i < settle; i++ {
							step()
						}
					}
				}
				t.Reap()
			}
		}
	}

	// Proactive: the forecaster watches the leak trend and schedules the
	// reboot before the crash. After a reboot it waits out the settle time
	// and one fit window, so the next fit sees only post-reboot ticks.
	{
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed))
		sys.RetainRows(forecastWindow)
		inject(sys, faults.NewAging(catalog.TierApp, 0.004))
		cooldown := 0
		for i := 0; i < horizonTicks; i++ {
			if sys.Cfg.SLO.Violated(sys.Step()) {
				res.ProactiveBadTicks++
			}
			if cooldown > 0 {
				cooldown--
				continue
			}
			if action, ok := forecast(sys.Coll.Series()); ok {
				if settle, err := sys.Target().Apply(action); err == nil {
					res.ProactiveActions++
					cooldown = int(settle) + forecastWindow
				}
			}
		}
	}
	return res
}

// The §5.3 forecaster ("failures predicted in advance and fixes applied
// proactively") fits OLS trends to Table 1's software-aging metrics and
// reboots the aging tier before the forecast crossing, turning a crash
// plus emergency recovery into a short planned restart.
const (
	forecastHorizon = 240 // ticks ahead a forecast crossing must fall to act
	forecastWindow  = 120 // recent ticks fitted
	forecastMinR2   = 0.7 // fit quality gate, so noise triggers no reboot
	forecastLevel   = 0.95
)

// agingRules: heap occupancy predicts app-tier crashes; rising utilization
// at constant throughput predicts web/db aging.
var agingRules = []struct {
	metric string
	action core.Action
}{
	{"app.heap.occ", core.Action{Fix: catalog.FixRebootAppTier, Target: "app"}},
	{"web.cpu.util", core.Action{Fix: catalog.FixRebootWebTier, Target: "web"}},
	{"db.cpu.util", core.Action{Fix: catalog.FixRebootDBTier, Target: "db"}},
}

// forecast returns the reboot of the first rule whose metric is forecast to
// cross forecastLevel within the horizon. Utilization rules additionally
// require flat throughput, so organic load growth is not mistaken for aging.
func forecast(series *metrics.Series) (core.Action, bool) {
	if series.Len() < forecastWindow {
		return core.Action{}, false
	}
	window := series.Tail(forecastWindow)
	tput := stats.FitSeries(window.Col("svc.throughput"))
	tputFlat := tput.Slope < tput.Intercept*0.0015 // <0.15%/tick growth
	now := float64(forecastWindow - 1)
	for _, r := range agingRules {
		col := window.Col(r.metric)
		if col == nil || (r.metric != "app.heap.occ" && !tputFlat) {
			continue
		}
		fit := stats.FitSeries(col)
		if fit.Slope <= 0 || fit.R2 < forecastMinR2 {
			continue
		}
		if x, ok := fit.CrossingTime(forecastLevel, now); ok && x-now <= forecastHorizon {
			return r.action, true
		}
	}
	return core.Action{}, false
}

// Format renders the proactive ablation.
func (r ProactiveAblation) Format() string {
	return fmt.Sprintf("Ablation §5.3 — proactive healing of aging: reactive=%d bad ticks, proactive=%d bad ticks (%d preemptive reboots)\n",
		r.ReactiveBadTicks, r.ProactiveBadTicks, r.ProactiveActions)
}

// ControlAblation analyzes the healing loop as a controller (§5.4): the
// recovery transient of a correct fix, and flapping detection for a policy
// stuck on a symptomatic-relief fix.
type ControlAblation struct {
	Settled      bool
	SettlingTime int
	Overshoot    float64
	SteadyErr    float64
	Flapping     flapping
}

// RunControlAblation measures a latency recovery transient and a
// deliberately flapping kill-hung-query policy against a deadlock.
func RunControlAblation(seed int64) ControlAblation {
	ctx := context.Background()
	res := ControlAblation{}

	// Transient: stale stats fixed by update-statistics; track latency
	// back to baseline.
	{
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed))
		sys.RetainRows(60) // the healthy latency target below
		idx := sys.Coll.Schema().MustIndex("svc.latency.avg")
		target := sys.Coll.Series().Tail(60).ColMeans()[idx]
		inject(sys, faults.NewStaleStats("items", 8))
		sys.RunUntilFailing(ctx, 600)
		// The series below starts at the fix, settle window included,
		// so the settle time is not stepped through separately;
		// update-statistics on a table is never refused.
		_, _ = sys.Target().Apply(selfheal.Action{Fix: catalog.FixUpdateStats, Target: "items"})
		var lat []float64
		for i := 0; i < 120; i++ {
			sys.Step()
			row := sys.Coll.Series().Row(sys.Coll.Series().Len() - 1)
			lat = append(lat, row[idx])
		}
		tr := analyzeTransient(lat, target, 0.25)
		res.Settled = tr.Settled
		res.SettlingTime = tr.SettlingTime
		res.Overshoot = tr.Overshoot
		res.SteadyErr = tr.SteadyStateError
	}

	// Flapping: kill-hung-query relieves a deadlock's thread pile-up for a
	// moment but never clears it; a policy without success checks keeps
	// re-applying it.
	{
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed+1))
		t := sys.Target()
		inject(sys, faults.NewDeadlock("ItemBean"))
		sys.RunUntilFailing(ctx, 600)
		kill := selfheal.Action{Fix: catalog.FixKillHungQuery}
		var events []fixEvent
		for i := 0; i < 12; i++ {
			at := t.Now()
			if settle, err := t.Apply(kill); err == nil {
				events = append(events, fixEvent{Fix: kill.Fix, Target: kill.Target, At: at})
				sys.StepN(int(settle) + 5)
			}
		}
		res.Flapping = detectFlapping(events, 200, 3)
	}
	return res
}

// Format renders the control-theory ablation.
func (r ControlAblation) Format() string {
	return fmt.Sprintf("Ablation §5.4 — control analysis: settled=%v settling=%dticks overshoot=%.2f steady-err=%.2f; flapping unstable=%v worst=%d (%s)\n",
		r.Settled, r.SettlingTime, r.Overshoot, r.SteadyErr, r.Flapping.Unstable, r.Flapping.Worst, r.Flapping.Action)
}
