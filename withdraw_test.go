package selfheal_test

import (
	"context"
	"testing"

	"selfheal"
)

// TestEpisodeEndsClean: every episode of a campaign on a lone auction
// System hands the next one a service with no live fault — healed, or
// withdrawn — while a cancelled episode keeps its fault.
func TestEpisodeEndsClean(t *testing.T) {
	ctx := context.Background()
	sys, err := selfheal.New(ctx, selfheal.WithSeed(1), selfheal.WithApproach(selfheal.ApproachFixSymNN))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	gen, err := sys.NewFaults(1)
	if err != nil {
		t.Fatal(err)
	}
	withdrawn := 0
	for i := range 200 {
		ep := sys.HealEpisode(ctx, gen.Next())
		if fix, live := sys.Target().CorrectFix(); live {
			t.Fatalf("episode %d (%v, recovered=%v): fault still live after it ended, fix %v", i, ep.Fault.Kind(), ep.Recovered, fix)
		}
		if ep.Withdrawn {
			withdrawn++
		}
	}
	if withdrawn == 0 {
		t.Error("no episode withdrew its fault; the test no longer exercises withdrawal")
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	csys, err := selfheal.New(ctx, selfheal.WithSeed(1), selfheal.WithEventSink(cancelOnInject{cancel}))
	if err != nil {
		t.Fatal(err)
	}
	defer csys.Close()
	ep := csys.HealEpisode(cctx, selfheal.NewStaleStats("items", 8))
	if ep.Withdrawn {
		t.Error("a cancelled episode withdrew its fault")
	}
	if _, live := csys.Target().CorrectFix(); !live {
		t.Error("a cancelled episode's fault is gone")
	}
}

// cancelOnInject cancels the episode the moment its fault is injected.
type cancelOnInject struct{ cancel context.CancelFunc }

func (c cancelOnInject) Emit(ev selfheal.Event) {
	if ev.Kind == selfheal.EventFaultInjected {
		c.cancel()
	}
}

// TestFleetStatsCountWithdrawn: a campaign's Withdrawn count is the
// number of its Withdrawn episodes, and the campaign has some.
func TestFleetStatsCountWithdrawn(t *testing.T) {
	ctx := context.Background()
	fleet, err := selfheal.NewFleet(ctx, 2, selfheal.WithSeed(1), selfheal.WithApproach(selfheal.ApproachFixSymNN))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	withdrawn := 0
	for _, rr := range res.Replicas {
		for _, ep := range rr.Episodes {
			if ep.Withdrawn {
				withdrawn++
			}
		}
	}
	if withdrawn == 0 || res.Stats.Withdrawn != withdrawn {
		t.Errorf("Stats.Withdrawn = %d, episodes marked withdrawn = %d (want equal and nonzero)", res.Stats.Withdrawn, withdrawn)
	}
	t.Logf("%d episodes: %d detected, %d recovered, %d withdrawn", res.Stats.Episodes, res.Stats.Detected, res.Stats.Recovered, res.Stats.Withdrawn)
}
