package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"selfheal"
	"selfheal/internal/core"
)

// loneRun is a campaign healed on one System, episode after episode, the
// way a fleet replica heals its share.
type loneRun struct {
	episodes []selfheal.Episode
	// escalatedAt and endedAt are the simulated ticks at which each
	// episode escalated (0: it did not) and at which its healing ended.
	escalatedAt []int64
	endedAt     []int64
	ticks       int64
	wall        time.Duration
	mem0, mem1  runtime.MemStats
}

func (r *loneRun) nsPerTick() float64 { return ratio(float64(r.wall), float64(r.ticks)) }

// phaseTracer turns the healer's event stream into the phase spans of the
// episode in progress: detect until the monitor declares the failure,
// attempt while fixes are tried, escalate from the administrator's
// notification on, and settle for the healthy run between episodes.
type phaseTracer struct {
	tr                                     *tracer
	target                                 *tracedTarget
	approach                               *tracedApproach
	lEpisode, lDetect, lAttempt, lEscalate *layer
	lSettle, lBuildContext                 *layer
	episode, phase                         open
	detectedAt                             time.Time
	escalatedTick                          int64
}

func (p *phaseTracer) enter(l *layer, at time.Time) {
	if p.phase.l != nil {
		p.tr.end(p.phase, p.episode, at, p.target.key)
	}
	p.phase = p.tr.begin(l, at)
	p.target.parent = p.phase
}

// Emit implements selfheal.EventSink.
func (p *phaseTracer) Emit(ev selfheal.Event) {
	switch ev.Kind {
	case selfheal.EventDetected:
		p.detectedAt = time.Now()
		p.enter(p.lAttempt, p.detectedAt)
	case selfheal.EventEscalated:
		p.escalatedTick = ev.Tick
		p.enter(p.lEscalate, time.Now())
	}
}

// runLone heals random faults on a lone System at the campaign's seeds
// until deadline. With a tracer, the System is assembled from decorated
// parts and every layer crossing becomes a span.
func runLone(ctx context.Context, e env, tr *tracer, deadline time.Time) (*loneRun, error) {
	var (
		sys *selfheal.System
		pt  *phaseTracer
		err error
	)
	if tr == nil {
		sys, err = selfheal.New(ctx, campaignOptions(e.seed)...)
	} else {
		bare, terr := selfheal.NewTarget(selfheal.TargetAuction, selfheal.TargetConfig{Seed: e.seed})
		if terr != nil {
			return nil, terr
		}
		target := newTracedTarget(tr, bare)
		pt = &phaseTracer{
			tr: tr, target: target, approach: newTracedFixSym(tr, target),
			lEpisode: tr.layer("episode"), lDetect: tr.layer("episode.phase.detect"),
			lAttempt: tr.layer("episode.phase.attempt"), lEscalate: tr.layer("episode.phase.escalate"),
			lSettle: tr.layer("episode.phase.settle"), lBuildContext: tr.layer("core.harness.buildcontext"),
		}
		sys, err = selfheal.New(ctx,
			selfheal.WithTargetInstance(target), selfheal.WithApproachInstance(pt.approach),
			selfheal.WithLearnBatch(1), selfheal.WithSeed(e.seed), selfheal.WithEventSink(pt))
		if err == nil {
			// Warm-up is over; from here every step is a span.
			sys.Harness.OnStep = target.stepDone
			target.armed = true
		}
	}
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	gen, err := sys.NewFaults(e.seed + 99)
	if err != nil {
		return nil, err
	}

	run := &loneRun{}
	runtime.ReadMemStats(&run.mem0)
	ticks0, t0 := sys.Target().Now(), time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		start := time.Now()
		if !start.Before(deadline) {
			break
		}
		f := gen.Next()
		if pt != nil {
			pt.target.key = int64(i + 1)
			pt.episode = tr.begin(pt.lEpisode, start)
			pt.phase, pt.escalatedTick = open{}, 0
			pt.approach.firstRecommend = time.Time{}
			pt.enter(pt.lDetect, start)
		}
		ep := sys.HealEpisode(ctx, f)
		run.episodes = append(run.episodes, ep)
		run.endedAt = append(run.endedAt, sys.Target().Now())
		if pt != nil {
			run.escalatedAt = append(run.escalatedAt, pt.escalatedTick)
			if first := pt.approach.firstRecommend; ep.Detected && !first.IsZero() {
				// The healer assembles the failure context between the
				// Detected event and its first question to the approach.
				tr.end(tr.begin(pt.lBuildContext, pt.detectedAt), pt.attemptParent(), first, pt.target.key)
			}
			pt.enter(pt.lSettle, time.Now())
		}
		sys.StepN(settleTicks)
		if pt != nil {
			end := time.Now()
			tr.end(pt.phase, pt.episode, end, pt.target.key)
			tr.end(pt.episode, open{}, end, pt.target.key)
			pt.phase = open{}
		}
	}
	run.wall = time.Since(t0)
	run.ticks = sys.Target().Now() - ticks0
	runtime.ReadMemStats(&run.mem1)
	return run, ctx.Err()
}

// attemptParent names the parent of the build-context span: the attempt
// phase it happened in. By the time the episode has returned that phase may
// have closed (an escalation followed), so the parent is given by layer
// alone — which is all the covered-time accounting needs.
func (p *phaseTracer) attemptParent() open { return open{id: p.episode.id, l: p.lAttempt} }

func traceCampaign(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	begin := time.Now()

	// The same campaign untraced, then traced: their ns/tick ratio is what
	// tracing costs, and their episodes must be the same episodes.
	plain, err := runLone(ctx, e, nil, begin.Add(e.seconds*3/10))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runLone(ctx, e, tr, time.Now().Add(e.seconds*4/10))
	if err != nil {
		return nil, err
	}
	n := len(plain.episodes)
	if len(traced.episodes) < n {
		n = len(traced.episodes)
	}
	if a, b := digestEpisodes(plain.episodes[:n]), digestEpisodes(traced.episodes[:n]); a != b {
		rep.fail("the decorated System healed differently from the bare one over %d episodes: digest %s vs %s", n, b, a)
	}
	rep.attempted = len(traced.episodes)
	for _, ep := range traced.episodes {
		if ep.Err != nil {
			rep.failed++
		}
	}

	m := rep.metrics
	step, tick := tr.layer("core.harness.step"), tr.layer("targets.auction.tick")
	episode := tr.layer("episode")
	m["core.harness.step_ns"] = step.meanNs()
	m["core.harness.self_ns"] = ratio(float64(step.self()), float64(step.count))
	m["core.harness.buildcontext_us"] = tr.layer("core.harness.buildcontext").meanNs() / 1e3
	m["targets.auction.tick_ns"] = tick.meanNs()
	m["targets.auction.callmatrix_ns"] = tr.layer("targets.auction.callmatrix").meanNs()
	m["targets.auction.inject_us"] = tr.layer("targets.auction.inject").meanNs() / 1e3
	m["targets.auction.apply_us"] = tr.layer("targets.auction.apply").meanNs() / 1e3
	recommend, observe, suggest := tr.layer("core.approach.recommend"), tr.layer("core.approach.observe"), tr.layer("synopsis.suggest")
	m["core.approach.recommend_us"] = recommend.meanNs() / 1e3
	m["core.approach.observe_us"] = observe.meanNs() / 1e3
	m["synopsis.suggest_in_episode_us"] = suggest.meanNs() / 1e3
	m["episode.suggest_calls"] = ratio(float64(suggest.count), float64(episode.count))
	m["episode.kb_share"] = ratio(float64(recommend.total+observe.total), float64(episode.total))

	// Whatever of an episode's host time no named child span covers is
	// the healing loop's own bookkeeping.
	unattributed := episode.self()
	for _, phase := range []string{"detect", "attempt", "escalate", "settle"} {
		unattributed += tr.layer("episode.phase." + phase).self()
	}
	m["trace.coverage_ratio"] = 1 - ratio(float64(unattributed), float64(episode.total))
	m["trace.overhead_ratio"] = ratio(traced.nsPerTick(), plain.nsPerTick())
	monitorCosts(e, m)
	healingEfficiency(traced, m)

	m["runtime.allocs_per_tick"] = ratio(float64(plain.mem1.Mallocs-plain.mem0.Mallocs), float64(plain.ticks))
	m["runtime.gc_pause_ms"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6
	m["runtime.heap_peak_mb"] = float64(plain.mem1.HeapSys) / (1 << 20)

	// Short isolated fleets of 1, 4 and 16 replicas on the same workers,
	// in the one unit that does not mix in ticks per episode: CPU
	// nanoseconds per simulated tick.
	for _, replicas := range []int{1, 4, 16} {
		fl, err := newCampaignFleet(ctx, e, replicas)
		if err != nil {
			return nil, err
		}
		ticks0, cpu0, t0 := fleetTicks(fl), selfCPU(), time.Now()
		_, err = runUntil(ctx, fl, e.seed+99, t0.Add(e.seconds/10))
		wall, cpu, ticks := time.Since(t0), selfCPU()-cpu0, fleetTicks(fl)-ticks0
		fl.Close()
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("fleet.ns_per_tick.replicas-%d", replicas)] = ratio(float64(cpu), float64(ticks))
		if replicas >= e.procs {
			m["fleet.cpu_utilisation"] = ratio(float64(cpu), float64(wall)*float64(e.procs))
		}
	}

	spans := filepath.Join(filepath.Dir(e.workDir), "spans-campaign-isolated.jsonl")
	if err := tr.writeFile(spans); err != nil {
		return nil, err
	}
	rep.notes["spans"] = spans
	rep.notes["trace"] = fmt.Sprintf("%d traced episodes (%d untraced), %.0f vs %.0f ns/tick",
		len(traced.episodes), len(plain.episodes), traced.nsPerTick(), plain.nsPerTick())
	return rep, nil
}

// monitorCosts times the two monitoring calls a harness makes every step —
// Collector.Collect and Monitor.Observe — on a scratch harness, in blocks,
// since from outside a running step they are only visible as one gap.
func monitorCosts(e env, m map[string]float64) {
	cfg := core.DefaultHarnessConfig()
	cfg.Seed = e.seed
	h := core.NewHarness(cfg)
	const n = 4096
	// Collect reads the target's current gauges; without a Tick in
	// between it reads the same values, which costs the same.
	now := h.Target.Now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now++
		h.Coll.Collect(now)
	}
	m["metrics.collect_ns"] = float64(time.Since(t0)) / n

	sample := h.Target.Tick()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Monitor.Observe(sample)
	}
	m["detect.monitor.observe_ns"] = float64(time.Since(t0)) / n
}

// healingEfficiency reports where the simulated ticks of the traced
// episodes went, and how many attempts were wasted: exact for a seed and an
// episode count, whatever the host.
func healingEfficiency(run *loneRun, m map[string]float64) {
	var detect, attempt, escalate, attempts, failedAttempts, escalated, firstTry, undetected, detected float64
	for i, ep := range run.episodes {
		end := run.endedAt[i]
		if !ep.Detected {
			undetected++
			detect += float64(end - ep.InjectedAt)
			continue
		}
		detected++
		detect += float64(ep.DetectedAt - ep.InjectedAt)
		if esc := run.escalatedAt[i]; ep.Escalated && esc > 0 {
			attempt += float64(esc - ep.DetectedAt)
			escalate += float64(end - esc)
			escalated++
		} else {
			attempt += float64(end - ep.DetectedAt)
		}
		attempts += float64(len(ep.Attempts))
		for _, a := range ep.Attempts {
			if !a.Success {
				failedAttempts++
			}
		}
		if ep.CorrectFirst {
			firstTry++
		}
	}
	n := float64(len(run.episodes))
	m["episode.ticks"] = ratio(float64(run.ticks), n)
	m["episode.phase.detect_ticks"] = ratio(detect, n)
	m["episode.phase.attempt_ticks"] = ratio(attempt, n)
	m["episode.phase.escalate_ticks"] = ratio(escalate, n)
	m["episode.phase.settle_ticks"] = settleTicks
	m["episode.attempts"] = ratio(attempts, detected)
	m["episode.wasted_attempt_ratio"] = ratio(failedAttempts, attempts)
	m["episode.escalated_ratio"] = ratio(escalated, detected)
	m["episode.first_try_ratio"] = ratio(firstTry, detected)
	m["episode.undetected_ratio"] = ratio(undetected, n)
}
