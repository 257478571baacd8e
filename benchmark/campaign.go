package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"selfheal"
)

// The campaign-isolated workload: eight replicas with cold, isolated
// knowledge bases heal random faults on the auction target, closed loop,
// one worker per processor. The tick path does the work; the knowledge
// base and the network do nothing.
const (
	campaignReplicas = 8
	// campaignPrefix is how many episodes per replica the simulated-time
	// metrics, the digest and the oracle cover. Replicas are isolated, so
	// each replica's first episodes are a pure function of the seed however
	// long the run goes on and however fast the host is; the episodes past
	// the prefix only add to the throughput reading.
	campaignPrefix = 250
	// campaignStretch is the run of consecutive episodes on one replica the
	// end-to-end success ratio is taken over; see runCampaign.
	campaignStretch = 50
	// campaignReplay is how many of replica 0's episodes the oracle heals
	// again on a lone System.
	campaignReplay = 200
)

func campaignOptions(seed int64) []selfheal.Option {
	return []selfheal.Option{
		selfheal.WithApproach(selfheal.ApproachFixSymNN),
		selfheal.WithLearnBatch(1),
		selfheal.WithSeed(seed),
	}
}

func newCampaignFleet(ctx context.Context, e env, replicas int) (*selfheal.Fleet, error) {
	return selfheal.NewFleet(ctx, replicas, append(campaignOptions(e.seed), selfheal.WithWorkers(e.procs))...)
}

// fleetTicks sums the simulated clocks of every replica.
func fleetTicks(fl *selfheal.Fleet) int64 {
	var ticks int64
	for i := 0; i < fl.Size(); i++ {
		ticks += fl.Replica(i).Target().Now()
	}
	return ticks
}

// runUntil heals episodes on fl until deadline, then lets the episodes in
// flight finish: a drain, not a cancel, so no episode is cut short.
func runUntil(ctx context.Context, fl *selfheal.Fleet, faultSeed int64, deadline time.Time) (*selfheal.FleetResult, error) {
	timer := time.AfterFunc(time.Until(deadline), fl.Drain)
	defer timer.Stop()
	return fl.RunCampaign(ctx, selfheal.Campaign{Episodes: math.MaxInt32, FaultSeed: faultSeed, SettleTicks: settleTicks})
}

func runCampaign(ctx context.Context, e env) (*report, error) {
	fl, setup, err := repeatSetup(e,
		func() (*selfheal.Fleet, error) { return newCampaignFleet(ctx, e, campaignReplicas) },
		func(fl *selfheal.Fleet) { fl.Close() })
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	faultSeed := e.seed + 99
	sampler := sampleRSS(0)
	ticks0, cpu0, t0 := fleetTicks(fl), selfCPU(), time.Now()
	res, err := runUntil(ctx, fl, faultSeed, t0.Add(e.seconds))
	wall := time.Since(t0)
	rss := sampler.peakMB()
	if err != nil {
		return nil, err
	}
	cpu := selfCPU() - cpu0
	ticks := fleetTicks(fl) - ticks0

	rep := newReport()
	var prefix []selfheal.Episode
	var stretches []float64
	short := false
	for _, rr := range res.Replicas {
		eps := rr.Episodes
		if len(eps) > campaignPrefix {
			eps = eps[:campaignPrefix]
		} else if len(eps) < campaignPrefix {
			short = true
		}
		prefix = append(prefix, eps...)
		for i := 0; i+campaignStretch <= len(eps); i += campaignStretch {
			if one := summarize(eps[i : i+campaignStretch]); one.detected > 0 {
				stretches = append(stretches, one.recoveredRatio)
			}
		}
		for _, ep := range rr.Episodes {
			rep.attempted++
			if ep.Err != nil {
				rep.failed++
			}
			if ep.Detected && ep.DetectedAt < ep.InjectedAt || ep.Recovered && ep.RecoveredAt < ep.DetectedAt {
				rep.fail("replica %d: episode times out of order: injected %d detected %d recovered %d",
					rr.Replica, ep.InjectedAt, ep.DetectedAt, ep.RecoveredAt)
			}
		}
	}
	if short {
		// A host too slow to finish the prefix still measures throughput;
		// its simulated-time numbers cover fewer episodes and no longer
		// repeat exactly.
		rep.notes["prefix"] = fmt.Sprintf("short: some replica healed fewer than %d episodes", campaignPrefix)
	}
	if rep.attempted != res.Stats.Episodes {
		rep.fail("episode count: fleet reports %d, replicas hold %d", res.Stats.Episodes, rep.attempted)
	}
	sim := summarize(prefix)
	replayOracle(ctx, rep, fl.ReplicaSeed(0), faultSeed, res.Replicas[0].Episodes, e.scaled(campaignReplay, 5))

	// A replica whose fault outlives an episode stays red for dozens of
	// episodes, and how many replicas that happens to is a matter of the
	// seed: pooled over the fleet, recovered/detected swings by a quarter
	// from seed to seed and could gate nothing. The end-to-end ratio is
	// therefore that of the median stretch of campaignStretch consecutive
	// episodes on one replica; the pooled ratio is reported beside it.
	// Ticks are simulated seconds.
	if len(stretches) == 0 {
		// A run too short for one full stretch has only the pooled ratio.
		stretches = []float64{sim.recoveredRatio}
	}
	rep.endToEnd(setup, float64(rep.attempted), wall, cpu, sim.ttrMean, sim.ttrTailMean, median(stretches), rss)
	rep.own("recovered_ratio", sim.recoveredRatio)
	rep.own("p95_ttr_ticks", sim.ttrP95)
	rep.own("ticks_per_s", float64(ticks)/wall.Seconds())
	rep.notes["ttr"] = sim.counts()
	rep.notes["digest"] = digestEpisodes(prefix)
	return rep, nil
}

// simStats are the simulated-time outcomes of a set of episodes: exact for
// a given seed, whatever the host.
type simStats struct {
	episodes, detected, recovered int
	recoveredRatio                float64
	ttrMean, ttrP95, ttrTailMean  float64
	ttrs                          []float64
}

func summarize(eps []selfheal.Episode) simStats {
	s := simStats{episodes: len(eps)}
	for _, ep := range eps {
		if ep.Detected {
			s.detected++
		}
		if ep.Recovered {
			s.recovered++
			s.ttrs = append(s.ttrs, float64(ep.TTR()))
		}
	}
	s.finish()
	return s
}

// finish derives the ratios and time-to-repair statistics from the counts
// and samples.
func (s *simStats) finish() {
	s.recoveredRatio = ratio(float64(s.recovered), float64(s.detected))
	s.ttrMean = mean(s.ttrs)
	s.ttrP95, _ = tail(s.ttrs, 0.95)
	s.ttrTailMean = tailMean(s.ttrs, tailFrom)
}

func (s simStats) counts() string {
	return fmt.Sprintf("%d recovered of %d detected of %d episodes", s.recovered, s.detected, s.episodes)
}

// episodeLine renders everything an episode records, fault and attempts
// included, so two episodes are the same exactly when their lines are.
func episodeLine(ep selfheal.Episode) string {
	fix, fixTarget := ep.Fault.CorrectFix()
	line := fmt.Sprintf("%v|%v|%s|%v|%s|inj=%d det=%v@%d esc=%v rec=%v@%d first=%v err=%v",
		ep.Fault.Kind(), ep.Fault.Cause(), ep.Fault.Target(), fix, fixTarget,
		ep.InjectedAt, ep.Detected, ep.DetectedAt, ep.Escalated, ep.Recovered, ep.RecoveredAt, ep.CorrectFirst, ep.Err)
	for _, a := range ep.Attempts {
		line += fmt.Sprintf("|%v conf=%v at=%d ok=%v", a.Action, a.Confidence, a.AppliedAt, a.Success)
	}
	return line
}

func digestEpisodes(eps []selfheal.Episode) string {
	h := sha256.New()
	for _, ep := range eps {
		fmt.Fprintln(h, episodeLine(ep))
	}
	return hexSum(h)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// replayOracle heals replica 0's first episodes again, one after another
// on a lone System at the replica's seed, and requires the same episodes:
// the fleet's scheduling must not have changed a single outcome.
func replayOracle(ctx context.Context, rep *report, replicaSeed, faultSeed int64, got []selfheal.Episode, n int) {
	if len(got) < n {
		n = len(got)
	}
	sys, err := selfheal.New(ctx, campaignOptions(replicaSeed)...)
	if err != nil {
		rep.fail("replay: %v", err)
		return
	}
	defer sys.Close()
	gen, err := sys.NewFaults(faultSeed)
	if err != nil {
		rep.fail("replay: %v", err)
		return
	}
	for i := 0; i < n; i++ {
		want := episodeLine(sys.HealEpisode(ctx, gen.Next()))
		sys.StepN(settleTicks)
		if have := episodeLine(got[i]); have != want {
			rep.fail("replay: replica 0 episode %d differs:\n fleet  %s\n replay %s", i, have, want)
			return
		}
	}
}
