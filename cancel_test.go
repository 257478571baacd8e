package selfheal_test

// Satellite coverage for context cancellation mid-episode: whichever
// phase of the Figure 3 loop the cancel lands in — before injection,
// waiting for detection, or mid fix-verification — RunEpisode must return
// promptly with a truthful partial Episode: phases that happened are
// recorded, phases that did not are not, and Recovered is never reported
// unless the monitor actually saw a clean window. Exercised on both
// shipped targets.

import (
	"context"
	"testing"

	"selfheal"
)

// cancelCase builds a per-target system and a fault whose episode runs
// long enough to be interrupted at any phase.
type cancelCase struct {
	name  string
	kind  selfheal.TargetKind
	fault func() selfheal.Fault
}

func cancelCases() []cancelCase {
	return []cancelCase{
		{"auction", selfheal.TargetAuction, func() selfheal.Fault { return selfheal.NewStaleStats("items", 8) }},
		{"replicated", selfheal.TargetReplicated, func() selfheal.Fault { return selfheal.NewBadDeploy("app-0", 0.6) }},
	}
}

func newCancelSystem(t *testing.T, kind selfheal.TargetKind, sink selfheal.EventSink) *selfheal.System {
	t.Helper()
	opts := []selfheal.Option{
		selfheal.WithSeed(13),
		selfheal.WithTargets(kind),
		selfheal.WithApproach(selfheal.ApproachHybrid),
	}
	if sink != nil {
		opts = append(opts, selfheal.WithEventSink(sink))
	}
	sys, err := selfheal.New(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCancelBeforeInjection: a context cancelled before the episode
// starts must not advance simulated time or fabricate any phase.
func TestCancelBeforeInjection(t *testing.T) {
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys := newCancelSystem(t, tc.kind, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := sys.Harness.Target.Now()
			ep := sys.HealEpisode(ctx, tc.fault())
			if ep.Detected || ep.Recovered || len(ep.Attempts) > 0 {
				t.Errorf("cancelled episode fabricated phases: %+v", ep)
			}
			if now := sys.Harness.Target.Now(); now != start {
				t.Errorf("cancelled episode advanced time by %d ticks", now-start)
			}
			if ep.TTR() != -1 {
				t.Errorf("unrecovered episode reports TTR %d", ep.TTR())
			}
		})
	}
}

// TestCancelDuringDetectionWait: cancelling right after injection — the
// loop is now waiting for the failure to become SLO-visible — returns an
// undetected episode without stepping through the episode budget.
func TestCancelDuringDetectionWait(t *testing.T) {
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			sink := selfheal.EventFunc(func(ev selfheal.Event) {
				if ev.Kind == selfheal.EventFaultInjected {
					cancel()
				}
			})
			sys := newCancelSystem(t, tc.kind, sink)
			start := sys.Harness.Target.Now()
			ep := sys.HealEpisode(ctx, tc.fault())
			if ep.Detected || ep.Recovered {
				t.Errorf("cancelled wait fabricated phases: detected=%v recovered=%v", ep.Detected, ep.Recovered)
			}
			if advanced := sys.Harness.Target.Now() - start; advanced != 0 {
				t.Errorf("cancelled wait still ran %d ticks", advanced)
			}
		})
	}
}

// TestCancelAfterDetection: cancelling the moment the monitor declares
// the failure must record Detected truthfully and stop before any fix is
// attempted.
func TestCancelAfterDetection(t *testing.T) {
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			sink := selfheal.EventFunc(func(ev selfheal.Event) {
				if ev.Kind == selfheal.EventDetected {
					cancel()
				}
			})
			sys := newCancelSystem(t, tc.kind, sink)
			ep := sys.HealEpisode(ctx, tc.fault())
			if !ep.Detected {
				t.Fatal("detection happened but was not recorded")
			}
			if len(ep.Attempts) != 0 {
				t.Errorf("cancelled episode still attempted %d fixes", len(ep.Attempts))
			}
			if ep.Recovered || ep.Escalated {
				t.Errorf("cancelled episode reports recovered=%v escalated=%v", ep.Recovered, ep.Escalated)
			}
		})
	}
}

// TestCancelMidVerification: cancelling while an attempt's success check
// runs must not record the interrupted attempt as a failure (its outcome
// is unknown) and must not fabricate recovery afterwards.
func TestCancelMidVerification(t *testing.T) {
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			recovereds := 0
			sink := selfheal.EventFunc(func(ev selfheal.Event) {
				// The first attempt event fires after its verification
				// window; cancelling here interrupts the next attempt's
				// check (or the escalation wait).
				if ev.Kind == selfheal.EventAttemptApplied || ev.Kind == selfheal.EventEscalated {
					cancel()
				}
				if ev.Kind == selfheal.EventRecovered {
					recovereds++
				}
			})
			sys := newCancelSystem(t, tc.kind, sink)
			ep := sys.HealEpisode(ctx, tc.fault())
			if !ep.Detected {
				t.Fatal("episode never reached the fix loop; test premise broken")
			}
			if ep.Recovered && recovereds == 0 {
				t.Error("episode reports Recovered without a Recovered event")
			}
			if !ep.Recovered && ep.TTR() != -1 {
				t.Errorf("unrecovered episode reports TTR %d", ep.TTR())
			}
		})
	}
}

// TestRunUntilPhasesHonorCancel: the harness-level wait loops return
// immediately on a dead context without stepping, for both targets.
func TestRunUntilPhasesHonorCancel(t *testing.T) {
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys := newCancelSystem(t, tc.kind, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := sys.Harness.Target.Now()
			if sys.RunUntilFailing(ctx, 1000) {
				t.Error("RunUntilFailing reported a failure on a healthy system")
			}
			if sys.RunUntilRecovered(ctx, 1000) {
				// Recovered may legitimately be true if the monitor is
				// already clean; it must just not have stepped to get
				// there.
				_ = true
			}
			if now := sys.Harness.Target.Now(); now-start > 1 {
				t.Errorf("cancelled waits advanced time by %d ticks", now-start)
			}
		})
	}
}
