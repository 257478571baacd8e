package selfheal_test

import (
	"context"
	"testing"

	"selfheal"
	"selfheal/internal/targets"
)

// fleetMeanTTR heals 100 random faults on each of 4 isolated auction
// replicas with the given approach, learning after every attempt, and
// returns the campaign's mean time to repair.
func fleetMeanTTR(t *testing.T, seed int64, kind selfheal.ApproachKind) float64 {
	t.Helper()
	ctx := context.Background()
	const replicas = 4
	fl, err := selfheal.NewFleet(ctx, replicas,
		selfheal.WithApproach(kind), selfheal.WithLearnBatch(1), selfheal.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	res, err := fl.RunCampaign(ctx, selfheal.Campaign{Episodes: replicas * 100, FaultSeed: seed + 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recovered == 0 {
		t.Fatalf("seed %d %s: nothing recovered", seed, kind)
	}
	return res.Stats.MeanTTR
}

// TestHybridFleetHealsFasterThanFixSym: the registered hybrid, FixSym-NN
// gated in front of bottleneck and anomaly analysis, repairs a cold
// fleet's faults in at most 0.6× FixSym-NN's mean time. The campaigns are
// simulated and exact per seed; seed 4 was held out when the gate was
// chosen.
func TestHybridFleetHealsFasterThanFixSym(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaigns")
	}
	for _, seed := range []int64{1, 4} {
		hybrid := fleetMeanTTR(t, seed, selfheal.ApproachHybrid)
		fixsym := fleetMeanTTR(t, seed, selfheal.ApproachFixSymNN)
		t.Logf("seed %d: hybrid mean TTR %.0f ticks, FixSym-NN %.0f: %.2f×", seed, hybrid, fixsym, hybrid/fixsym)
		if hybrid > 0.6*fixsym {
			t.Errorf("seed %d: hybrid mean TTR %.0f ticks is %.2f× FixSym-NN's %.0f, want ≤ 0.6×",
				seed, hybrid, hybrid/fixsym, fixsym)
		}
	}
}

// refusalCounter counts the actions its target refused.
type refusalCounter struct{ refused []selfheal.Action }

func (c *refusalCounter) count(a selfheal.Action, err error) {
	if err != nil {
		c.refused = append(c.refused, a)
	}
}

// countingReplicated and countingAuction are the library's two targets
// with every refused Apply counted. Embedding the concrete target keeps
// every optional interface it implements.
type countingReplicated struct {
	*targets.Replicated
	c *refusalCounter
}

func (t countingReplicated) Apply(a selfheal.Action) (int64, error) {
	ticks, err := t.Replicated.Apply(a)
	t.c.count(a, err)
	return ticks, err
}

type countingAuction struct {
	*targets.Auction
	c *refusalCounter
}

func (t countingAuction) Apply(a selfheal.Action) (int64, error) {
	ticks, err := t.Auction.Apply(a)
	t.c.count(a, err)
	return ticks, err
}

func countingTarget(t *testing.T, kind string, seed int64, c *refusalCounter) selfheal.Target {
	t.Helper()
	cfg := selfheal.TargetConfig{Seed: seed}
	switch kind {
	case targets.ReplicatedName:
		r, err := targets.NewReplicated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return countingReplicated{r, c}
	case targets.AuctionName:
		a, err := targets.NewAuction(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return countingAuction{a, c}
	}
	t.Fatalf("no counting wrapper for target %q", kind)
	return nil
}

// TestLibraryHealsWithoutRefusals: no registered approach proposes an
// action its target refuses, over every library scenario at the
// scenario-library benchmark's first 40 seeds and over random-fault
// campaigns on the replicated and auction targets (seeds 1–4, 50
// episodes each). Each target declares the fixes its diagnosers may name
// (targets.Spec.Diagnosis), so no approach carries one target's
// vocabulary to another. The hybrid and anomaly analysis also recover
// every detected library failure.
func TestLibraryHealsWithoutRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario campaigns")
	}
	ctx := context.Background()
	for _, kind := range selfheal.ApproachKinds() {
		mustRecover := kind == selfheal.ApproachHybrid || kind == selfheal.ApproachAnomaly
		var c refusalCounter
		for seed := int64(1_000_001); seed <= 1_000_040; seed++ {
			for _, name := range selfheal.ScenarioNames() {
				sc, err := selfheal.ScenarioByName(name)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := selfheal.New(ctx, selfheal.WithSeed(seed), selfheal.WithApproach(kind),
					selfheal.WithTargetInstance(countingTarget(t, sc.Target, seed, &c)), selfheal.WithScenario(sc))
				if err != nil {
					t.Fatal(err)
				}
				st, err := sys.RunScenario(ctx, nil)
				sys.Close()
				if err != nil {
					t.Fatal(err)
				}
				if mustRecover && st.Recovered != st.Episodes {
					t.Errorf("%s, %s seed %d: %d of %d episodes recovered", kind, name, seed, st.Recovered, st.Episodes)
				}
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, target := range []string{targets.ReplicatedName, targets.AuctionName} {
				sys, err := selfheal.New(ctx, selfheal.WithSeed(seed), selfheal.WithApproach(kind),
					selfheal.WithTargetInstance(countingTarget(t, target, seed, &c)))
				if err != nil {
					t.Fatal(err)
				}
				gen, err := sys.NewFaults(seed)
				if err != nil {
					t.Fatal(err)
				}
				for range 50 {
					sys.HealEpisode(ctx, gen.Next())
				}
				sys.Close()
			}
		}
		if len(c.refused) > 0 {
			byAction := map[string]int{}
			for _, a := range c.refused {
				byAction[a.Key()]++
			}
			t.Errorf("%s: the targets refused %d actions: %v", kind, len(c.refused), byAction)
		}
	}
}
