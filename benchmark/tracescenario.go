package main

import (
	"context"
	"fmt"
	"time"

	"selfheal"
)

// traceScenarios measures the layers the scenario workload adds to the
// episode path: the replicated target's tick, the scenario runner's cost
// per tick over a plain Step, and what building and warming a System per
// run costs. The per-scenario outcomes come from the same seeds the
// end-to-end run heals, so they repeat exactly.
func traceScenarios(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	scs, err := loadScenarios(ctx, e.seed)
	if err != nil {
		return nil, err
	}
	begin := time.Now()

	// Plain runs first, for the simulated-time outcomes of each scenario.
	units, err := runScenarioUnits(ctx, e, scs, begin.Add(e.seconds*6/10), scenarioPrefix)
	if err != nil {
		return nil, err
	}
	sim := summarizeScenarios(scs, units)
	m := rep.metrics
	// One pair of metrics per library scenario. BENCHMARK.json lists them by
	// name; a scenario the library has grown since is reported beside the
	// declared metrics until the file lists it too.
	perScenario := func(name, unit string, v float64) {
		if _, ok := find(bench.perLayer, name); ok {
			m[name] = v
		} else {
			rep.extra[name] = metric{v, unit}
		}
	}
	for i, sc := range scs {
		perScenario("scenario."+sc.Name+".recovered_ratio", "ratio", sim.perScenario[i].recoveredRatio)
		perScenario("scenario."+sc.Name+".slo_violation_ticks", "ticks", sim.sloByScen[i])
		rep.attempted += sim.perScenario[i].episodes
	}
	rep.notes["digest"] = sim.digest
	if len(units) < scenarioPrefix {
		rep.notes["prefix"] = fmt.Sprintf("short: %d of %d seeds finished", len(units), scenarioPrefix)
	}

	// Then decorated runs, one goroutine, until the time is up.
	tr := newTracer()
	var construct, scenarioWall, plainWall time.Duration
	var constructs int
	var scenarioTicks, plainTicks int64
	deadline := begin.Add(e.seconds)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		seed := e.seed*scenarioSeedStride + int64(i) + 1
		for _, sc := range scs {
			t0 := time.Now()
			sys, target, err := newTracedScenarioSystem(ctx, tr, seed, sc)
			if err != nil {
				return nil, err
			}
			construct += time.Since(t0)
			constructs++
			target.armed = true
			warm := sys.Target().Now()
			t0 = time.Now()
			_, err = sys.RunScenario(ctx, nil)
			scenarioWall += time.Since(t0)
			scenarioTicks += sys.Target().Now() - warm
			sys.Close()
			if err != nil {
				return nil, err
			}

			// The same target kind stepped with no scenario and no healer
			// for the same number of ticks: what a tick costs when nothing
			// is scripted.
			sys, target, err = newTracedScenarioSystem(ctx, tr, seed, sc)
			if err != nil {
				return nil, err
			}
			target.armed = true
			t0 = time.Now()
			sys.StepN(int(sc.Horizon))
			plainWall += time.Since(t0)
			plainTicks += sc.Horizon
			sys.Close()
		}
	}
	m["targets.replicated.tick_ns"] = tr.layer("targets.replicated.tick").meanNs()
	m["scenario.construct_ms"] = ratio(float64(construct.Microseconds())/1e3, float64(constructs))
	m["scenario.runner.overhead_ns_per_tick"] = ratio(float64(scenarioWall), float64(scenarioTicks)) - ratio(float64(plainWall), float64(plainTicks))
	rep.notes["trace"] = fmt.Sprintf("%d decorated runs; scenario %.0f ns/tick, plain step %.0f ns/tick",
		constructs, ratio(float64(scenarioWall), float64(scenarioTicks)), ratio(float64(plainWall), float64(plainTicks)))
	return rep, nil
}

// newTracedScenarioSystem builds the System a scenario run uses around a
// decorated target. Only Tick is of interest here, so no OnStep hook closes
// step spans; the scenario runner owns that hook.
func newTracedScenarioSystem(ctx context.Context, tr *tracer, seed int64, sc *selfheal.Scenario) (*selfheal.System, *tracedTarget, error) {
	kind := selfheal.TargetKind(sc.Target)
	if kind == "" {
		kind = selfheal.TargetAuction
	}
	bare, err := selfheal.NewTarget(kind, selfheal.TargetConfig{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	target := newTracedTarget(tr, bare)
	sys, err := selfheal.New(ctx,
		selfheal.WithTargetInstance(target), selfheal.WithSeed(seed),
		selfheal.WithApproach(selfheal.ApproachFixSymNN), selfheal.WithScenario(sc))
	return sys, target, err
}
