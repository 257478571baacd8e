package selfheal_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"selfheal"
)

func TestTargetRegistry(t *testing.T) {
	kinds := selfheal.TargetKinds()
	if len(kinds) < 2 || kinds[0] != selfheal.TargetAuction || kinds[1] != selfheal.TargetReplicated {
		t.Fatalf("built-in targets missing or out of order: %v", kinds)
	}
	for _, kind := range kinds {
		spec, ok := selfheal.TargetSpecFor(kind)
		if !ok {
			t.Errorf("no spec for %q", kind)
			continue
		}
		if len(spec.FaultKinds) == 0 || len(spec.CandidateFixes) == 0 || len(spec.Mixes) == 0 {
			t.Errorf("target %q has an incomplete spec: %+v", kind, spec)
		}
		for _, k := range spec.FaultKinds {
			if len(spec.CandidateFixes[k]) == 0 {
				t.Errorf("target %q: fault %v has no candidate fixes", kind, k)
			}
		}
	}

	// Registration validation mirrors RegisterApproach.
	auctionSpec, _ := selfheal.TargetSpecFor(selfheal.TargetAuction)
	if err := selfheal.RegisterTarget(auctionSpec, func(selfheal.TargetConfig) (selfheal.Target, error) {
		return nil, nil
	}); err == nil {
		t.Error("duplicate target registration accepted")
	}
	if err := selfheal.RegisterTarget(selfheal.TargetSpec{Name: "x"}, nil); err == nil {
		t.Error("nil factory accepted")
	}
	empty := auctionSpec
	empty.Name = ""
	if err := selfheal.RegisterTarget(empty, func(selfheal.TargetConfig) (selfheal.Target, error) {
		return nil, nil
	}); err == nil {
		t.Error("empty target name accepted")
	}
}

func TestWithTargetValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := selfheal.New(ctx, selfheal.WithTargets("nope")); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := selfheal.New(ctx,
		selfheal.WithTargets(selfheal.TargetReplicated),
		selfheal.WithWorkloadMix("bidding")); err == nil {
		t.Error("replicated target accepted the auction bidding mix")
	}
	sys, err := selfheal.New(ctx,
		selfheal.WithTargets(selfheal.TargetReplicated),
		selfheal.WithWorkloadMix("readheavy"))
	if err != nil {
		t.Fatal(err)
	}
	if sys.TargetSpec().Name != string(selfheal.TargetReplicated) {
		t.Errorf("system runs target %q", sys.TargetSpec().Name)
	}
}

// TestReplicatedSystemHealsEndToEnd is the acceptance criterion: the
// replicated-topology target heals at least 3 fault kinds end-to-end
// through the unmodified Healer.
func TestReplicatedSystemHealsEndToEnd(t *testing.T) {
	ctx := context.Background()
	sys, err := selfheal.New(ctx,
		selfheal.WithSeed(9),
		selfheal.WithTargets(selfheal.TargetReplicated))
	if err != nil {
		t.Fatal(err)
	}
	cases := []selfheal.Fault{
		selfheal.NewReplicaDown("app-1"),
		selfheal.NewBadDeploy("app-0", 0.5),
		selfheal.NewRoutingSkew(0.9),
		selfheal.NewReplicaLeak("app-0", 0.01),
		selfheal.NewPrimaryDegraded(0.3),
	}
	healedKinds := map[selfheal.FaultKind]bool{}
	for _, f := range cases {
		ep := sys.HealEpisode(ctx, f)
		if !ep.Detected {
			t.Errorf("%v on %q: never detected", f.Kind(), f.Target())
			continue
		}
		if !ep.Recovered {
			t.Errorf("%v on %q: never recovered", f.Kind(), f.Target())
			continue
		}
		healedKinds[f.Kind()] = true
		sys.StepN(120)
	}
	if len(healedKinds) < 3 {
		t.Fatalf("only %d fault kinds healed end-to-end, want >= 3", len(healedKinds))
	}
}

// TestHeterogeneousFleetSharedKB is the acceptance criterion: a fleet
// mixing both target kinds over one shared knowledge base completes a
// deterministic campaign with aggregated stats.
func TestHeterogeneousFleetSharedKB(t *testing.T) {
	ctx := context.Background()
	run := func() (*selfheal.FleetResult, *selfheal.SharedSynopsis, []string) {
		shared := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
		fleet, err := selfheal.NewFleet(ctx, 4,
			selfheal.WithSeed(33),
			selfheal.WithTargets(selfheal.TargetAuction, selfheal.TargetReplicated),
			selfheal.WithSynopsis(shared),
			selfheal.WithLearnBatch(1),
			selfheal.WithWorkers(1), // sequential: shared-KB timing is pinned
		)
		if err != nil {
			t.Fatal(err)
		}
		var kinds []string
		for i := 0; i < fleet.Size(); i++ {
			kinds = append(kinds, fleet.Replica(i).TargetSpec().Name)
		}
		res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: 12})
		if err != nil {
			t.Fatal(err)
		}
		return res, shared, kinds
	}
	res, shared, kinds := run()
	want := []string{"auction", "replicated", "auction", "replicated"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("replica target kinds %v, want %v", kinds, want)
	}
	if res.Stats.Episodes != 12 {
		t.Fatalf("campaign aggregated %d episodes, want 12", res.Stats.Episodes)
	}
	if res.Stats.Recovered == 0 {
		t.Fatal("heterogeneous campaign recovered nothing")
	}
	if shared.TrainingSize() == 0 {
		t.Fatal("shared knowledge base learned nothing from the mixed fleet")
	}
	// Determinism: the same configuration replays to the same stats.
	res2, _, _ := run()
	if !reflect.DeepEqual(res.Stats, res2.Stats) {
		t.Errorf("heterogeneous campaign not deterministic: %+v vs %+v", res.Stats, res2.Stats)
	}
}

func TestCampaignKindsValidatedPerTarget(t *testing.T) {
	ctx := context.Background()
	fleet, err := selfheal.NewFleet(ctx, 2,
		selfheal.WithSeed(3),
		selfheal.WithTargets(selfheal.TargetAuction, selfheal.TargetReplicated))
	if err != nil {
		t.Fatal(err)
	}
	// stale-statistics is an auction-only kind: replica 1's replicated
	// target must reject the campaign up front.
	_, err = fleet.RunCampaign(ctx, selfheal.Campaign{
		Episodes: 4,
		Kinds:    []selfheal.FaultKind{selfheal.NewStaleStats("items", 6).Kind()},
	})
	if err == nil {
		t.Fatal("campaign accepted a kind outside the replicated catalog")
	}
	if !strings.Contains(err.Error(), "valid kinds") {
		t.Errorf("error %q does not list valid kinds", err)
	}
}

func TestSystemNewFaultsScoped(t *testing.T) {
	ctx := context.Background()
	sys, err := selfheal.New(ctx, selfheal.WithTargets(selfheal.TargetReplicated))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewFaults(1, selfheal.NewStaleStats("items", 6).Kind()); err == nil {
		t.Error("replicated system accepted an auction-only fault kind")
	}
	gen, err := sys.NewFaults(1)
	if err != nil {
		t.Fatal(err)
	}
	ep := sys.HealEpisode(ctx, gen.Next())
	if !ep.Detected {
		t.Error("generated replicated fault never became visible")
	}
}

// TestEventTargetStamp: events carry the emitting target kind so
// heterogeneous fleet streams stay attributable.
func TestEventTargetStamp(t *testing.T) {
	ctx := context.Background()
	var targets []string
	sys := selfheal.MustNew(ctx,
		selfheal.WithSeed(9),
		selfheal.WithTargets(selfheal.TargetReplicated),
		selfheal.WithEventSink(selfheal.EventFunc(func(ev selfheal.Event) {
			targets = append(targets, ev.Target)
		})),
	)
	sys.HealEpisode(ctx, selfheal.NewBadDeploy("app-0", 0.6))
	if len(targets) == 0 {
		t.Fatal("no events emitted")
	}
	for _, name := range targets {
		if name != "replicated" {
			t.Fatalf("event stamped with target %q, want replicated", name)
		}
	}
}

// TestForeignFaultRefused: a fault built for another target kind must not
// crash the process — the episode returns with Err set and nothing ran.
func TestForeignFaultRefused(t *testing.T) {
	ctx := context.Background()
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(4)) // default auction target
	ep := sys.HealEpisode(ctx, selfheal.NewReplicaDown("app-1"))
	if ep.Err == nil {
		t.Fatal("foreign fault injected without error")
	}
	if !strings.Contains(ep.Err.Error(), "auction") {
		t.Errorf("error %q does not name the refusing target", ep.Err)
	}
	if ep.Detected || ep.Recovered || len(ep.Attempts) != 0 {
		t.Errorf("refused episode claims progress: %+v", ep)
	}
	// The system is unharmed and heals its own faults afterwards.
	if ep2 := sys.HealEpisode(ctx, selfheal.NewStaleStats("items", 8)); ep2.Err != nil || !ep2.Detected {
		t.Errorf("system broken after refused inject: err=%v detected=%v", ep2.Err, ep2.Detected)
	}
}

// TestWorkloadMixScopedPerKind: a heterogeneous fleet applies a mix to
// the kinds that define it; kinds that don't run their defaults. Only a
// mix no configured kind understands fails construction.
func TestWorkloadMixScopedPerKind(t *testing.T) {
	ctx := context.Background()
	fleet, err := selfheal.NewFleet(ctx, 2,
		selfheal.WithTargets(selfheal.TargetAuction, selfheal.TargetReplicated),
		selfheal.WithWorkloadMix("readheavy")) // replicated-only mix
	if err != nil {
		t.Fatalf("mixed fleet rejected a mix one kind understands: %v", err)
	}
	if fleet.Size() != 2 {
		t.Fatalf("fleet size %d", fleet.Size())
	}
	if _, err := selfheal.NewFleet(ctx, 2,
		selfheal.WithTargets(selfheal.TargetAuction, selfheal.TargetReplicated),
		selfheal.WithWorkloadMix("nope")); err == nil {
		t.Error("mix unknown to every kind accepted")
	}
	if _, err := selfheal.New(ctx, selfheal.WithWorkloadMix("readheavy")); err == nil {
		t.Error("single auction system accepted a replicated-only mix")
	}
}

// TestSteadyStateStepAllocatesNothing pins the tick path of both shipped
// targets: past warm-up and a full history window, a Step allocates
// nothing of its own. The one thing that still allocates is the metric
// history taking a new block every few hundred ticks, which AllocsPerRun's
// whole-number average leaves at zero; a per-tick allocation reads 1.
func TestSteadyStateStepAllocatesNothing(t *testing.T) {
	for _, kind := range []selfheal.TargetKind{selfheal.TargetAuction, selfheal.TargetReplicated} {
		sys := selfheal.MustNew(context.Background(), selfheal.WithSeed(3), selfheal.WithTargets(kind))
		sys.StepN(5000)
		if allocs := testing.AllocsPerRun(2000, func() { sys.Step() }); allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state Step, want 0", kind, allocs)
		}
	}
}
