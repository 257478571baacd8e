package selfheal_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"selfheal"
	"selfheal/internal/core"
)

// TestFleetDeterminismUnderConcurrency is the fleet's core guarantee: 8
// replicas healing a 64-episode random-fault campaign concurrently produce,
// per replica, exactly the episodes that replica's seed produces when run
// sequentially on a standalone System.
func TestFleetDeterminismUnderConcurrency(t *testing.T) {
	ctx := context.Background()
	const (
		replicas  = 8
		episodes  = 64
		seed      = 42
		faultSeed = 43 // fleet default: seed+1
	)
	fleet, err := selfheal.NewFleet(ctx, replicas,
		selfheal.WithSeed(seed),
		selfheal.WithApproach(selfheal.ApproachAnomaly),
		selfheal.WithWorkers(replicas),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Episodes != episodes {
		t.Fatalf("campaign ran %d episodes, want %d", res.Stats.Episodes, episodes)
	}
	if res.Stats.Recovered == 0 {
		t.Fatal("campaign recovered nothing; fleet is not healing")
	}

	// Sequential ground truth: replay each replica's share on a standalone
	// System at the replica's seed, with the fleet's fault stream and
	// settle cadence.
	per := episodes / replicas
	for i := 0; i < replicas; i++ {
		sys := selfheal.MustNew(ctx,
			selfheal.WithSeed(fleet.ReplicaSeed(i)),
			selfheal.WithApproach(selfheal.ApproachAnomaly),
		)
		gen, err := sys.NewFaults(faultSeed + int64(i)*7907)
		if err != nil {
			t.Fatal(err)
		}
		var want []selfheal.Episode
		for e := 0; e < per; e++ {
			want = append(want, sys.HealEpisode(ctx, gen.Next()))
			sys.StepN(120)
		}
		got := res.Replicas[i].Episodes
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replica %d: concurrent episodes diverge from sequential replay", i)
		}
	}
}

// TestFleetOfOneMatchesSequentialSystem is the migration guarantee: a
// Fleet of one is the old sequential System, byte for byte.
func TestFleetOfOneMatchesSequentialSystem(t *testing.T) {
	ctx := context.Background()
	const episodes = 6
	fleet, err := selfheal.NewFleet(ctx, 1, selfheal.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}

	sys := selfheal.MustNew(ctx, selfheal.WithSeed(11))
	gen, err := sys.NewFaults(12) // fleet default fault seed: seed+1
	if err != nil {
		t.Fatal(err)
	}
	var want []selfheal.Episode
	for e := 0; e < episodes; e++ {
		want = append(want, sys.HealEpisode(ctx, gen.Next()))
		sys.StepN(120)
	}
	got := res.Replicas[0].Episodes
	if len(got) != len(want) {
		t.Fatalf("fleet ran %d episodes, sequential ran %d", len(got), len(want))
	}
	// renderEpisode dereferences the fault so the comparison is over
	// values, not pointer addresses.
	render := func(ep selfheal.Episode) string {
		return fmt.Sprintf("fault=%+v inj=%d det=%v@%d attempts=%+v esc=%v rec=%v@%d first=%v",
			reflect.Indirect(reflect.ValueOf(ep.Fault)), ep.InjectedAt, ep.Detected, ep.DetectedAt,
			ep.Attempts, ep.Escalated, ep.Recovered, ep.RecoveredAt, ep.CorrectFirst)
	}
	for e := range want {
		if !reflect.DeepEqual(got[e], want[e]) {
			t.Errorf("episode %d diverges:\nfleet:      %s\nsequential: %s", e, render(got[e]), render(want[e]))
		}
	}
}

// TestFleetOfOneLearnBatchMatchesSequential extends the migration
// guarantee to batched learning: a fleet of one with WithLearnBatch is
// still the sequential System with the same option, byte for byte —
// batching changes when labels reach the synopsis, not what any episode
// observes relative to the same-configured sequential run.
func TestFleetOfOneLearnBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	const episodes = 6
	fleet, err := selfheal.NewFleet(ctx, 1,
		selfheal.WithSeed(11),
		selfheal.WithSynopsis(selfheal.NewNNSynopsis()),
		selfheal.WithLearnBatch(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}

	sys := selfheal.MustNew(ctx,
		selfheal.WithSeed(11),
		selfheal.WithSynopsis(selfheal.NewNNSynopsis()),
		selfheal.WithLearnBatch(1),
	)
	gen, err := sys.NewFaults(12) // fleet default fault seed: seed+1
	if err != nil {
		t.Fatal(err)
	}
	var want []selfheal.Episode
	for e := 0; e < episodes; e++ {
		want = append(want, sys.HealEpisode(ctx, gen.Next()))
		sys.StepN(120)
	}
	if !reflect.DeepEqual(res.Replicas[0].Episodes, want) {
		t.Error("batched fleet-of-one diverges from batched sequential replay")
	}
}

// TestFleetCampaignWorkerInvariance: the worker count is pure scheduling
// — identical fleets healing the same campaign with one worker and with
// four must produce identical episodes on every replica. The replicas run
// isolated learning approaches whose learn flushes (LearnBatch 3) fall
// inside the scheduler's 8-episode slices of a 10-episode share, so
// outcomes genuinely depend on when labels reach each synopsis: a
// scheduler that tied learn flushes to its slices or to the worker that
// ran them, instead of to episode counts, would diverge here.
func TestFleetCampaignWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) *selfheal.FleetResult {
		fleet, err := selfheal.NewFleet(ctx, 4,
			selfheal.WithSeed(21),
			selfheal.WithApproach(selfheal.ApproachFixSymNN),
			selfheal.WithLearnBatch(3),
			selfheal.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	for i := range one.Replicas {
		if !reflect.DeepEqual(one.Replicas[i].Episodes, four.Replicas[i].Episodes) {
			t.Errorf("replica %d: episodes differ between 1 and 4 workers", i)
		}
	}
	if !reflect.DeepEqual(one.Stats, four.Stats) {
		t.Errorf("stats differ between worker counts: %+v vs %+v", one.Stats, four.Stats)
	}
}

// TestFleetSharedSynopsis runs 8 replicas learning into one shared
// knowledge base. Primarily a -race exercise over the Fleet + Shared
// machinery; it also checks the shared synopsis actually accumulated every
// replica's lessons.
func TestFleetSharedSynopsis(t *testing.T) {
	ctx := context.Background()
	shared := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	var mu sync.Mutex
	perReplica := map[int]int{}
	fleet, err := selfheal.NewFleet(ctx, 8,
		selfheal.WithSeed(7),
		selfheal.WithSynopsis(shared),
		selfheal.WithEventSink(selfheal.EventFunc(func(ev selfheal.Event) {
			mu.Lock()
			perReplica[ev.Replica]++
			mu.Unlock()
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Episodes != 16 {
		t.Fatalf("ran %d episodes, want 16", res.Stats.Episodes)
	}
	if shared.TrainingSize() == 0 {
		t.Error("shared synopsis learned nothing from the campaign")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perReplica) != 8 {
		t.Errorf("events arrived from %d replicas, want 8", len(perReplica))
	}
}

// TestFleetApproachInstanceRejected: one mutable approach instance must
// not be silently shared across replicas.
func TestFleetApproachInstanceRejected(t *testing.T) {
	a, _ := selfheal.NewApproach(selfheal.ApproachAnomaly)
	if _, err := selfheal.NewFleet(context.Background(), 2, selfheal.WithApproachInstance(a)); err == nil {
		t.Fatal("fleet accepted a shared approach instance")
	}
}

// TestFleetBareSynopsisRejected: an unwrapped synopsis shared across
// replicas would race; the fleet must demand the Shared wrapper. A fleet
// of one has no concurrency, so the bare synopsis stays legal there.
func TestFleetBareSynopsisRejected(t *testing.T) {
	ctx := context.Background()
	if _, err := selfheal.NewFleet(ctx, 2, selfheal.WithSynopsis(selfheal.NewNNSynopsis())); err == nil {
		t.Fatal("fleet of 2 accepted an unguarded shared synopsis")
	}
	if _, err := selfheal.NewFleet(ctx, 1, selfheal.WithSynopsis(selfheal.NewNNSynopsis())); err != nil {
		t.Errorf("fleet of 1 rejected a bare synopsis: %v", err)
	}
}

// TestFleetCampaignDistribution checks uneven episode counts spread as
// evenly as possible.
func TestFleetCampaignDistribution(t *testing.T) {
	ctx := context.Background()
	fleet, err := selfheal.NewFleet(ctx, 4,
		selfheal.WithSeed(3),
		selfheal.WithApproach(selfheal.ApproachManual),
		selfheal.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{
		Episodes:    10,
		Kinds:       []selfheal.FaultKind{selfheal.NewStaleStats("items", 6).Kind()},
		SettleTicks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 2, 2}
	for i, rr := range res.Replicas {
		if len(rr.Episodes) != want[i] {
			t.Errorf("replica %d ran %d episodes, want %d", i, len(rr.Episodes), want[i])
		}
		if rr.Replica != i {
			t.Errorf("result %d labeled replica %d", i, rr.Replica)
		}
	}
}

// TestFleetCancelledCampaign: a cancelled context surfaces as the
// campaign error and stops the replicas early.
func TestFleetCancelledCampaign(t *testing.T) {
	ctx := context.Background()
	fleet, err := selfheal.NewFleet(ctx, 2, selfheal.WithSeed(5), selfheal.WithApproach(selfheal.ApproachManual))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, err := fleet.RunCampaign(cancelled, selfheal.Campaign{Episodes: 8})
	if err == nil {
		t.Fatal("cancelled campaign reported no error")
	}
	if res.Stats.Episodes != 0 {
		t.Errorf("cancelled campaign still ran %d episodes", res.Stats.Episodes)
	}
}

// TestFleetStatsAdd: the one episode tally counts each flag, every
// episode's attempts, and the mean and worst TTR over recovered episodes
// only.
func TestFleetStatsAdd(t *testing.T) {
	ep := func(attempts int, injected, recovered int64) selfheal.Episode {
		return selfheal.Episode{InjectedAt: injected, RecoveredAt: recovered, Attempts: make([]core.Attempt, attempts)}
	}
	firstRight := ep(1, 10, 110)
	firstRight.Detected, firstRight.Recovered, firstRight.CorrectFirst = true, true, true
	escalated := ep(3, 0, 333)
	escalated.Detected, escalated.Recovered, escalated.Escalated, escalated.Withdrawn = true, true, true, true
	latent := ep(0, 5, 0)
	latent.Latent = true
	unhealed := ep(2, 7, 0)
	unhealed.Detected, unhealed.Withdrawn = true, true

	var s selfheal.FleetStats
	if s.MeanTTR != 0 || s.RecoveryRate() != 1 {
		t.Fatalf("empty tally: mean TTR %v, recovery rate %v", s.MeanTTR, s.RecoveryRate())
	}
	for _, e := range []selfheal.Episode{firstRight, escalated, latent, unhealed} {
		s.Add(e)
	}
	got := [...]int{s.Episodes, s.Detected, s.Latent, s.Withdrawn, s.Recovered, s.Escalated, s.CorrectFirst, s.Attempts}
	if want := [...]int{4, 3, 1, 2, 2, 1, 1, 6}; got != want {
		t.Errorf("episodes, detected, latent, withdrawn, recovered, escalated, correct-first, attempts = %v, want %v", got, want)
	}
	if s.MeanTTR != 216.5 || s.MaxTTR != 333 {
		t.Errorf("mean TTR %v, max TTR %d; want 216.5 and 333", s.MeanTTR, s.MaxTTR)
	}
	if r := s.RecoveryRate(); r != 2.0/3 {
		t.Errorf("recovery rate %v, want 2/3", r)
	}
}
