package selfheal_test

import (
	"context"
	"testing"

	"selfheal"
)

func TestNewEveryApproach(t *testing.T) {
	ctx := context.Background()
	for _, kind := range selfheal.ApproachKinds() {
		sys, err := selfheal.New(ctx, selfheal.WithSeed(5), selfheal.WithApproach(kind))
		if err != nil {
			t.Errorf("approach %q: %v", kind, err)
			continue
		}
		if sys.Approach().Name() == "" {
			t.Errorf("approach %q has no name", kind)
		}
		st := sys.StepN(5)
		if st.Down {
			t.Errorf("approach %q: fresh system is down", kind)
		}
	}
	if _, err := selfheal.New(ctx, selfheal.WithApproach("nope")); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := selfheal.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Approach().Name() != "hybrid" {
		t.Errorf("default approach %q", sys.Approach().Name())
	}
}

func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	bad := []selfheal.Option{
		selfheal.WithAdminDelayTicks(-1),
		selfheal.WithWorkers(0),
		selfheal.WithEventSink(nil),
		selfheal.WithSynopsis(nil),
		selfheal.WithApproachInstance(nil),
	}
	for i, opt := range bad {
		if _, err := selfheal.New(ctx, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() int64 {
		ctx := context.Background()
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(11), selfheal.WithApproach(selfheal.ApproachAnomaly))
		ep := sys.HealEpisode(ctx, selfheal.NewBufferContention(0.8))
		return ep.TTR()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different outcomes: %d vs %d", a, b)
	}
}

func TestHealEpisodeEndToEnd(t *testing.T) {
	ctx := context.Background()
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(13), selfheal.WithApproach(selfheal.ApproachBottleneck))
	ep := sys.HealEpisode(ctx, selfheal.NewBottleneck(selfheal.TierDB, 3.9, 1200))
	if !ep.Detected {
		t.Fatal("db bottleneck not detected")
	}
	if !ep.Recovered {
		t.Fatal("db bottleneck not recovered")
	}
	if ep.Escalated {
		t.Error("bottleneck analysis should not need the administrator for a saturated tier")
	}
	if ep.DetectionToRecovery() < 0 || ep.DetectionToRecovery() > ep.TTR() {
		t.Errorf("DetectionToRecovery %d outside (0, TTR=%d]", ep.DetectionToRecovery(), ep.TTR())
	}
	if got, want := ep.TTR(), ep.RecoveredAt-ep.InjectedAt; got != want {
		t.Errorf("TTR %d != RecoveredAt-InjectedAt %d", got, want)
	}
}

// TestCancelledEpisode checks that a done context stops the loop instead of
// healing: the episode returns quickly and unrecovered.
func TestCancelledEpisode(t *testing.T) {
	ctx := context.Background()
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(13), selfheal.WithApproach(selfheal.ApproachBottleneck))
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	start := sys.Target().Now()
	ep := sys.HealEpisode(cancelled, selfheal.NewBottleneck(selfheal.TierDB, 3.9, 1200))
	if ep.Recovered || ep.Detected {
		t.Errorf("cancelled episode still ran: detected=%v recovered=%v", ep.Detected, ep.Recovered)
	}
	if sys.Target().Now() != start {
		t.Errorf("cancelled episode advanced simulated time by %d ticks", sys.Target().Now()-start)
	}
}

// TestEventStream verifies a healed episode emits a well-formed stream:
// FaultInjected first, then Detected, at least one AttemptApplied or an
// Escalated, and Recovered (carrying the episode's TTR) last.
func TestEventStream(t *testing.T) {
	ctx := context.Background()
	var events []selfheal.Event
	sys := selfheal.MustNew(ctx,
		selfheal.WithSeed(13),
		selfheal.WithApproach(selfheal.ApproachBottleneck),
		selfheal.WithEventSink(selfheal.EventFunc(func(ev selfheal.Event) { events = append(events, ev) })),
	)
	ep := sys.HealEpisode(ctx, selfheal.NewBottleneck(selfheal.TierDB, 3.9, 1200))
	if !ep.Recovered {
		t.Fatal("episode did not recover")
	}
	if len(events) < 3 {
		t.Fatalf("only %d events emitted: %+v", len(events), events)
	}
	if events[0].Kind != selfheal.EventFaultInjected || events[0].Fault == nil {
		t.Errorf("first event %+v, want FaultInjected with fault", events[0])
	}
	if events[1].Kind != selfheal.EventDetected {
		t.Errorf("second event %v, want Detected", events[1].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != selfheal.EventRecovered {
		t.Errorf("last event %v, want Recovered", last.Kind)
	}
	if last.TTR != ep.TTR() {
		t.Errorf("Recovered event TTR %d != episode TTR %d", last.TTR, ep.TTR())
	}
	attempts := 0
	for _, ev := range events {
		if ev.Episode != 1 {
			t.Errorf("event %v has episode %d, want 1", ev.Kind, ev.Episode)
		}
		if ev.Kind == selfheal.EventAttemptApplied {
			attempts++
			if ev.Attempt != attempts {
				t.Errorf("attempt numbering: got %d, want %d", ev.Attempt, attempts)
			}
		}
	}
	if attempts != len(ep.Attempts) {
		t.Errorf("%d AttemptApplied events, episode recorded %d attempts", attempts, len(ep.Attempts))
	}
}

func TestRandomFaultsCoverKinds(t *testing.T) {
	gen := auctionFaults(3)
	seen := map[selfheal.FaultKind]bool{}
	for i := 0; i < 300; i++ {
		seen[gen.Next().Kind()] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d kinds generated in 300 draws", len(seen))
	}
}

func TestCandidateFixesExported(t *testing.T) {
	gen := auctionFaults(5)
	f := gen.Next()
	cands := selfheal.CandidateFixes(f.Kind())
	if len(cands) == 0 {
		t.Fatalf("no candidates for %v", f.Kind())
	}
	fix, _ := f.CorrectFix()
	found := false
	for _, c := range cands {
		if c == fix {
			found = true
		}
	}
	if !found {
		t.Errorf("correct fix %v not among Table 1 candidates %v", fix, cands)
	}
}

// TestLearnBatchDefersSynopsisUpdates: with WithLearnBatch(n) the synopsis
// must see nothing until n episodes have completed, then the whole buffer
// in one flush; FlushLearned drains a partial batch on demand.
func TestLearnBatchDefersSynopsisUpdates(t *testing.T) {
	ctx := context.Background()
	syn := selfheal.NewNNSynopsis()
	sys := selfheal.MustNew(ctx,
		selfheal.WithSeed(5),
		selfheal.WithSynopsis(syn),
		selfheal.WithLearnBatch(2),
	)
	ep := sys.HealEpisode(ctx, selfheal.NewStaleStats("items", 8))
	if !ep.Detected {
		t.Fatal("episode was never detected; test premise broken")
	}
	if n := syn.TrainingSize(); n != 0 {
		t.Fatalf("synopsis saw %d points before the batch flushed", n)
	}
	sys.StepN(120)
	sys.HealEpisode(ctx, selfheal.NewStaleStats("items", 8))
	if syn.TrainingSize() == 0 {
		t.Fatal("batch never flushed after LearnBatch episodes")
	}

	// A partial batch drains on demand.
	syn2 := selfheal.NewNNSynopsis()
	sys2 := selfheal.MustNew(ctx,
		selfheal.WithSeed(5),
		selfheal.WithSynopsis(syn2),
		selfheal.WithLearnBatch(3),
	)
	sys2.HealEpisode(ctx, selfheal.NewStaleStats("items", 8))
	if syn2.TrainingSize() != 0 {
		t.Fatal("partial batch leaked before FlushLearned")
	}
	sys2.FlushLearned()
	if syn2.TrainingSize() == 0 {
		t.Fatal("FlushLearned left the buffer undelivered")
	}
}
