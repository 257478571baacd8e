package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selfheal"
)

// The scenario-library workload: every library scenario is run on a fresh
// System for seed after seed, one worker per processor taking seeds in
// turn. The same harness and healer as the campaign, used differently: the
// replicated target, scripted multi-fault timelines, construction and
// warm-up paid on every run.
const (
	// scenarioPrefix is how many seeds (each one run of every scenario)
	// the simulated-time metrics and the digest cover; see campaignPrefix.
	scenarioPrefix = 600
	// scenarioSeedStride keeps the seed ranges of different --seed values
	// apart.
	scenarioSeedStride = 1_000_000
)

// loadScenarios is the workload's set-up: each library scenario goes
// through its file form, as an operator's scenario file would, is validated
// against its target by building one System for it, and is run once there
// as a dry run.
func loadScenarios(ctx context.Context, seed int64) ([]*selfheal.Scenario, error) {
	var scs []*selfheal.Scenario
	for _, name := range selfheal.ScenarioNames() {
		lib, err := selfheal.ScenarioByName(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := selfheal.EncodeScenario(&buf, lib); err != nil {
			return nil, err
		}
		sc, err := selfheal.ParseScenario(buf.Bytes())
		if err != nil {
			return nil, err
		}
		sys, err := newScenarioSystem(ctx, seed, sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		_, err = sys.RunScenario(ctx, nil)
		sys.Close()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

func newScenarioSystem(ctx context.Context, seed int64, sc *selfheal.Scenario) (*selfheal.System, error) {
	return selfheal.New(ctx,
		selfheal.WithSeed(seed),
		selfheal.WithApproach(selfheal.ApproachFixSymNN),
		selfheal.WithScenario(sc))
}

// scenarioUnit is one seed's outcome: the stats of every scenario, in
// library order, and the simulated ticks they took.
type scenarioUnit struct {
	stats []selfheal.ScenarioStats
	ticks int64
}

func runScenarioUnit(ctx context.Context, seed int64, scs []*selfheal.Scenario) (scenarioUnit, error) {
	var u scenarioUnit
	for _, sc := range scs {
		sys, err := newScenarioSystem(ctx, seed, sc)
		if err != nil {
			return u, err
		}
		st, err := sys.RunScenario(ctx, nil)
		u.ticks += sys.Target().Now()
		sys.Close()
		if err != nil {
			return u, fmt.Errorf("scenario %s seed %d: %w", sc.Name, seed, err)
		}
		// Keep a copy: the returned stats live inside the run's System.
		u.stats = append(u.stats, *st)
	}
	return u, nil
}

// runScenarioUnits runs units 0, 1, 2, ... on workers goroutines until
// deadline (or until limit units, when limit > 0). Workers claim the next
// index from a counter and finish what they claimed, so the units returned
// are always a gap-free run from 0 whatever the schedule was.
func runScenarioUnits(ctx context.Context, e env, scs []*selfheal.Scenario, deadline time.Time, limit int) ([]scenarioUnit, error) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		units []scenarioUnit
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				u, err := runScenarioUnit(ctx, e.seed*scenarioSeedStride+int64(i)+1, scs)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				for len(units) <= i {
					units = append(units, scenarioUnit{})
				}
				units[i] = u
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return units, first
}

func runScenarios(ctx context.Context, e env) (*report, error) {
	scs, setup, err := repeatSetup(e,
		func() ([]*selfheal.Scenario, error) { return loadScenarios(ctx, e.seed) },
		func([]*selfheal.Scenario) {})
	if err != nil {
		return nil, err
	}

	sampler := sampleRSS(0)
	cpu0, t0 := selfCPU(), time.Now()
	units, err := runScenarioUnits(ctx, e, scs, t0.Add(e.seconds), 0)
	wall := time.Since(t0)
	rss := sampler.peakMB()
	if err != nil {
		return nil, err
	}
	cpu := selfCPU() - cpu0

	rep := newReport()
	var ticks int64
	for _, u := range units {
		ticks += u.ticks
		for _, st := range u.stats {
			rep.attempted += st.Episodes
		}
	}
	prefix := units
	if len(prefix) > scenarioPrefix {
		prefix = prefix[:scenarioPrefix]
	} else if len(prefix) < scenarioPrefix {
		rep.notes["prefix"] = fmt.Sprintf("short: %d of %d seeds finished", len(prefix), scenarioPrefix)
	}
	sim := summarizeScenarios(scs, prefix)
	for i, sc := range scs {
		if sim.perScenario[i].detected == 0 {
			rep.fail("scenario %s detected no failure over %d seeds", sc.Name, len(prefix))
		}
	}

	rep.endToEnd(setup, float64(rep.attempted), wall, cpu, sim.all.ttrMean, sim.all.ttrTailMean, sim.all.recoveredRatio, rss)
	rep.own("p95_ttr_ticks", sim.all.ttrP95)
	rep.own("slo_violation_ticks", sim.sloPerRun)
	rep.own("ticks_per_s", float64(ticks)/wall.Seconds())
	rep.own("scenario_runs_per_s", float64(len(units)*len(scs))/wall.Seconds())
	rep.notes["ttr"] = sim.all.counts()
	rep.notes["digest"] = sim.digest
	return rep, nil
}

// scenarioSummary pools the stats of a set of units, overall and per
// scenario, and digests them in seed order.
type scenarioSummary struct {
	all         simStats
	perScenario []simStats
	sloByScen   []float64 // mean SLO-violation ticks per run of each scenario
	sloPerRun   float64   // mean over every run
	digest      string
}

func summarizeScenarios(scs []*selfheal.Scenario, units []scenarioUnit) scenarioSummary {
	sum := scenarioSummary{perScenario: make([]simStats, len(scs)), sloByScen: make([]float64, len(scs))}
	ttrs := make([][]float64, len(scs))
	var allTTRs []float64
	var slo, runs float64
	h := sha256.New()
	for i, u := range units {
		for s, st := range u.stats {
			fmt.Fprintf(h, "%d %s det=%d eps=%d rec=%d esc=%d slo=%d ttrs=%v\n",
				i, st.Scenario, st.Detections, st.Episodes, st.Recovered, st.Escalations, st.SLOViolationTicks, st.TTRs)
			p := &sum.perScenario[s]
			p.episodes += st.Episodes
			p.detected += st.Detections
			p.recovered += st.Recovered
			sum.sloByScen[s] += float64(st.SLOViolationTicks)
			slo += float64(st.SLOViolationTicks)
			runs++
			for _, t := range st.TTRs {
				ttrs[s] = append(ttrs[s], float64(t))
			}
		}
	}
	for s := range sum.perScenario {
		p := &sum.perScenario[s]
		p.recoveredRatio = ratio(float64(p.recovered), float64(p.detected))
		sum.sloByScen[s] = ratio(sum.sloByScen[s], float64(len(units)))
		sum.all.episodes += p.episodes
		sum.all.detected += p.detected
		sum.all.recovered += p.recovered
		allTTRs = append(allTTRs, ttrs[s]...)
	}
	sum.all.ttrs = allTTRs
	sum.all.finish()
	sum.sloPerRun = ratio(slo, runs)
	sum.digest = hexSum(h)
	return sum
}
