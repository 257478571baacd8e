package selfheal_test

import (
	"context"
	"strings"
	"testing"

	"selfheal"
)

func TestWithScenarioPinsAndRuns(t *testing.T) {
	ctx := context.Background()
	sc, err := selfheal.ScenarioByName("cascade-db-replica")
	if err != nil {
		t.Fatal(err)
	}
	// The scenario's own target pin selects the kind when none is given.
	sys, err := selfheal.New(ctx,
		selfheal.WithSeed(42),
		selfheal.WithApproach(selfheal.ApproachFixSymNN),
		selfheal.WithScenario(sc))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.TargetSpec().Name; got != "replicated" {
		t.Fatalf("scenario pin selected target %q, want replicated", got)
	}
	st, err := sys.RunScenario(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Detections == 0 || st.Injections != 2 {
		t.Fatalf("cascade run: %s", st.Format())
	}
	if pct := st.RecoveredPct(); pct >= 100 {
		t.Fatalf("cascade recovered %.1f%% with fixsym-nn, want < 100", pct)
	}
}

func TestWithScenarioRejectsWrongTarget(t *testing.T) {
	ctx := context.Background()
	sc, err := selfheal.ScenarioByName("flash-crowd") // auction-pinned
	if err != nil {
		t.Fatal(err)
	}
	_, err = selfheal.New(ctx,
		selfheal.WithTargets(selfheal.TargetReplicated),
		selfheal.WithScenario(sc))
	if err == nil || !strings.Contains(err.Error(), "written for target") {
		t.Fatalf("auction scenario accepted on replicated target: %v", err)
	}
}

func TestRunScenarioWithoutConfiguration(t *testing.T) {
	ctx := context.Background()
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(7))
	if _, err := sys.RunScenario(ctx, nil); err == nil {
		t.Fatal("RunScenario(nil) without WithScenario should error")
	}
	sc := selfheal.NewScenario("inline").Horizon(400).
		At(50, "stale", selfheal.ScenarioFaultSpec{Kind: "stale-statistics"}).
		MustBuild()
	st, err := sys.RunScenario(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Injections != 1 {
		t.Fatalf("inline scenario: %s", st.Format())
	}
}

func TestFleetRunScenarioMerges(t *testing.T) {
	ctx := context.Background()
	sc, err := selfheal.ScenarioByName("grey-degrade")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := selfheal.NewFleet(ctx, 3,
		selfheal.WithSeed(42),
		selfheal.WithScenario(sc),
		selfheal.WithSynopsis(selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())))
	if err != nil {
		t.Fatal(err)
	}
	st, err := fl.RunScenario(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Injections != 6 || st.GreyInjections != 3 {
		t.Fatalf("3-replica grey-degrade: %s", st.Format())
	}
	if st.Detections < 3 {
		t.Fatalf("each replica should detect the tip-over: %s", st.Format())
	}
}

// TestScenarioWorkloadBlock: a scenario's workload block is the standing
// load regime of a run — its 3x scale raises offered load well past a
// baseline system's, and a malformed block is refused at WithScenario.
func TestScenarioWorkloadBlock(t *testing.T) {
	ctx := context.Background()
	shape := &selfheal.Scenario{
		Name:     "overload",
		Horizon:  1,
		Workload: &selfheal.ScenarioWorkload{Scale: 3, Diurnal: true},
	}
	shaped := selfheal.MustNew(ctx, selfheal.WithSeed(9), selfheal.WithScenario(shape))
	if _, err := shaped.RunScenario(ctx, nil); err != nil {
		t.Fatal(err)
	}
	base := selfheal.MustNew(ctx, selfheal.WithSeed(9))
	sum := func(s *selfheal.System) float64 {
		var arrivals float64
		for i := 0; i < 200; i++ {
			arrivals += s.Step().Arrivals
		}
		return arrivals
	}
	b, sh := sum(base), sum(shaped)
	if sh <= 2*b {
		t.Fatalf("3x workload block raised offered load only %.0f -> %.0f", b, sh)
	}

	for _, bad := range []selfheal.ScenarioWorkload{
		{Scale: -1},
		{Surges: []selfheal.LoadSurge{{Start: 10, End: 5, Factor: 2}}},
	} {
		sc := &selfheal.Scenario{Name: "bad", Horizon: 100, Workload: &bad}
		if _, err := selfheal.New(ctx, selfheal.WithScenario(sc)); err == nil {
			t.Fatalf("malformed workload block %+v accepted", bad)
		}
	}
}
