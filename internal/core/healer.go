package core

import (
	"context"

	"selfheal/internal/catalog"
	"selfheal/internal/targets"
)

// Fault is the target-agnostic fault descriptor the healing loop injects
// and records: kind, cause, strike target and ground-truth fix. Concrete
// fault mechanics live with the target that manufactured the fault.
type Fault = targets.Fault

// HealerConfig parameterizes the Figure 3 loop.
type HealerConfig struct {
	// Threshold is the paper's THRESHOLD: failed attempts before escalating
	// to the general costly fix (full restart + administrator).
	Threshold int
	// CheckTicks bounds how long after a fix settles the loop waits for a
	// clean SLO window before declaring the attempt failed.
	CheckTicks int
	// AdminDelayTicks is the human response time after NotifyAdmin —
	// recovery "limited to slower human timescales" (§1).
	AdminDelayTicks int
	// EpisodeBudget bounds one episode's total ticks as a safety net.
	// RunEpisode's wait for detection is further bounded by the harness's
	// HistoryTicks (see RunEpisode).
	EpisodeBudget int
	// LearnBatch batches learn events at episode granularity: 0 (the
	// default) delivers every attempt's outcome to the approach
	// immediately, the paper's per-attempt Figure 3 behavior; n ≥ 1
	// buffers observations and flushes them every n episodes — one
	// ObserveBatch (one writer lock, one refit, one snapshot republish on
	// a shared knowledge base) per flush. Within an episode the loop's
	// exclusion set comes from the tried list, not the synopsis, so
	// deferring labels to episode end never re-proposes a failed fix.
	LearnBatch int
}

// DefaultHealerConfig mirrors Figure 3 with human escalation at minutes
// timescale.
func DefaultHealerConfig() HealerConfig {
	return HealerConfig{
		Threshold:       4,
		CheckTicks:      40,
		AdminDelayTicks: 600,
		EpisodeBudget:   6000,
	}
}

// Attempt records one fix application within an episode.
type Attempt struct {
	Action     Action
	Confidence float64
	AppliedAt  int64
	Success    bool
}

// Episode is the outcome of healing one failure.
//
// A campaign keeps every episode it heals, so the flags come last,
// together: 88 bytes instead of 112 with each one padded to a word.
type Episode struct {
	// Err records why the episode never ran: the fault was built for a
	// different target kind and injection was refused. Nil for every
	// episode the loop actually drove, including failed ones.
	Err         error
	Fault       Fault
	InjectedAt  int64
	DetectedAt  int64
	RecoveredAt int64
	Attempts    []Attempt
	Detected    bool
	// Latent reports an undetected episode whose wait for detection saw
	// not one SLO-violating tick: the fault did no visible harm at this
	// load, so it is not a miss of the detector. False for a cancelled
	// wait, which is neither latent nor missed.
	Latent    bool
	Escalated bool
	Recovered bool
	// Withdrawn reports that the fault was still live when the episode
	// ended — undetected, unrecovered, or masked by a recovery that left
	// its cause in place — and the target's ClearFault withdrew it.
	Withdrawn bool
	// CorrectFirst reports whether the first attempt succeeded.
	CorrectFirst bool
}

// TTR returns the episode's time to repair in ticks, measured from fault
// injection through recovery — the full user-impact window, including the
// detection lag, every fix attempt, and any human escalation. For the
// paper's narrower detection-through-recovery metric see
// DetectionToRecovery. Returns -1 when the episode never recovered.
func (e Episode) TTR() int64 {
	if !e.Recovered {
		return -1
	}
	return e.RecoveredAt - e.InjectedAt
}

// DetectionToRecovery returns ticks from SLO detection through recovery —
// the paper's recovery metric, which excludes the pre-detection latency
// TTR includes. Returns -1 when the episode was never detected or never
// recovered.
func (e Episode) DetectionToRecovery() int64 {
	if !e.Detected || !e.Recovered {
		return -1
	}
	return e.RecoveredAt - e.DetectedAt
}

// Healer drives the Figure 3 loop: wait for a failure, query the approach
// for a probable fix, apply it, check it, feed the outcome back, and repeat
// until fixed or the threshold triggers the general costly fix. It talks
// to the managed system only through the harness's Target interface, so
// the same loop heals every registered target kind unmodified.
type Healer struct {
	Cfg      HealerConfig
	H        *Harness
	Approach Approach

	// Sink, when non-nil, receives the episode event stream (see Event).
	Sink EventSink

	// Learn, when non-nil, gates the learn path: while frozen, attempt
	// outcomes and administrator labels are dropped instead of taught to
	// the approach, so the knowledge base stops growing fleet-wide the
	// moment an operator freezes it. Recommend still reads everything
	// already learned. A Fleet shares one gate across its replicas.
	Learn *Gate

	// AdminOracle plays the administrator of Figure 3 lines 19–20: it
	// returns the correct fix for the live fault. The facade wires it to
	// the target's ground truth (Target.CorrectFix); nil means the
	// administrator merely restarts and the episode ends unlabeled.
	AdminOracle func() (Action, bool)

	episodes int
	// targetName is the target kind stamped on events, cached because
	// Target.Spec returns the whole catalog by value.
	targetName string
	// pending buffers learn events when Cfg.LearnBatch ≥ 1; sinceFlush
	// counts episodes since the buffer last drained.
	pending    []Observation
	sinceFlush int
}

// NewHealer builds a healer over an environment and an approach, and has
// the environment gather only the optional evidence the approach declares
// (EvidenceReader): HistoryTicks rows of metric history for
// EvidenceHistory (the detection window otherwise), the call-matrix ring
// and χ² test for EvidenceCalls, sampled paths for EvidencePaths.
func NewHealer(h *Harness, a Approach, cfg HealerConfig) *Healer {
	h.evidence = evidenceOf(a)
	return &Healer{Cfg: cfg, H: h, Approach: a, targetName: h.Target.Spec().Name}
}

// observe routes one learn event: straight to the approach when
// unbatched, into the pending buffer otherwise. A frozen learning gate
// drops the event entirely — the observation is gone, not deferred, so a
// thaw resumes learning from the present rather than replaying a backlog
// the operator asked not to have.
func (hl *Healer) observe(fctx *FailureContext, action Action, success bool) {
	if hl.Learn != nil && hl.Learn.Frozen() {
		return
	}
	if hl.Cfg.LearnBatch <= 0 {
		hl.Approach.Observe(fctx, action, success)
		return
	}
	hl.pending = append(hl.pending, Observation{Ctx: fctx, Action: action, Success: success})
}

// endEpisode runs the per-episode flush bookkeeping.
func (hl *Healer) endEpisode() {
	if hl.Cfg.LearnBatch <= 0 {
		return
	}
	hl.sinceFlush++
	if hl.sinceFlush >= hl.Cfg.LearnBatch {
		hl.FlushLearned()
	}
}

// FlushLearned delivers every buffered learn event to the approach — in
// one ObserveBatch when the approach supports it — and resets the batch
// clock. A no-op when nothing is buffered. Callers that batch across
// episodes (LearnBatch > 1) should flush once more when a campaign ends so
// no labels are stranded.
func (hl *Healer) FlushLearned() {
	hl.sinceFlush = 0
	if len(hl.pending) == 0 {
		return
	}
	if hl.Learn != nil && hl.Learn.Frozen() {
		// Frozen between buffering and flush: the operator asked for no
		// new knowledge, so the buffered labels are dropped, not parked.
		clear(hl.pending)
		hl.pending = hl.pending[:0]
		return
	}
	if ob, ok := hl.Approach.(ObserveBatcher); ok {
		ob.ObserveBatch(hl.pending)
	} else {
		for _, o := range hl.pending {
			hl.Approach.Observe(o.Ctx, o.Action, o.Success)
		}
	}
	// Nil the contexts before truncating: each one holds its window's
	// rows (a History reader's pins HistoryTicks of metric blocks), which
	// the backing array would keep alive.
	clear(hl.pending)
	hl.pending = hl.pending[:0]
}

// emit sends ev to the sink, stamping the episode number and target kind.
func (hl *Healer) emit(ev Event) {
	if hl.Sink == nil {
		return
	}
	ev.Episode = hl.episodes
	ev.Target = hl.targetName
	hl.Sink.Emit(ev)
}

// applyAction performs one recovery action through the target and steps
// through its settle window. It returns Apply's error (unknown fix,
// nonsense target): the target refused the action, and nothing settles.
func (hl *Healer) applyAction(a Action) error {
	settle, err := hl.H.Target.Apply(a)
	if err == nil {
		hl.H.StepN(int(settle))
	}
	return err
}

// RunEpisode injects f and heals the resulting failure to completion. The
// episode owns its fault: when it returns, f is gone — healed, or
// withdrawn through the target's ClearFault (see withdraw) — so the
// next episode starts from a clean slate. The context cancels the
// episode: on cancellation or deadline the loop stops stepping, reaps,
// and returns the episode as observed so far, its fault still in place.
// A fault built for a different target kind is refused by the target: the
// episode returns immediately with Err set and nothing injected —
// campaigns should draw from the target's own fault generator.
//
// The wait for detection lasts at most min(EpisodeBudget, HistoryTicks)
// ticks: a failure surfacing later has its injection outside the History
// BuildContext hands to diagnosis, so waiting longer buys no evidence
// about this fault. EpisodeBudget still bounds the whole episode from
// InjectedAt.
func (hl *Healer) RunEpisode(ctx context.Context, f Fault) Episode {
	h := hl.H
	// Bind the episode context to the clock for the whole episode, so
	// settle and admin-delay windows (StepN, no ctx of their own) stop
	// pacing promptly when the episode is cancelled.
	defer h.SetPaceContext(h.SetPaceContext(ctx))
	hl.episodes++
	ep := Episode{Fault: f, InjectedAt: h.Target.Now()}
	if err := h.Target.Inject(f); err != nil {
		ep.Err = err
		hl.endEpisode()
		return ep
	}
	hl.emit(Event{Kind: EventFaultInjected, Tick: ep.InjectedAt, Fault: f})

	budget := hl.Cfg.EpisodeBudget
	violations := h.Monitor.Violations
	if !h.RunUntilFailing(ctx, min(budget, h.Cfg.HistoryTicks)) {
		// The fault never became SLO-visible: withdraw it rather than
		// leave it to stack under the next episode's fault.
		ep.Latent = ctx.Err() == nil && h.Monitor.Violations == violations
		hl.withdraw(ctx, &ep)
		h.Target.Reap()
		hl.endEpisode()
		return ep
	}
	ep.Detected = true
	ep.DetectedAt = h.Target.Now()
	hl.emit(Event{Kind: EventDetected, Tick: ep.DetectedAt})

	hl.attemptLoop(ctx, &ep, budget)
	hl.withdraw(ctx, &ep)
	h.Target.Reap()
	if ep.Recovered {
		hl.emit(Event{Kind: EventRecovered, Tick: ep.RecoveredAt, TTR: ep.TTR()})
	}
	hl.endEpisode()
	return ep
}

// withdraw clears the episode's fault when it is still live at the
// episode's end: one outage is counted once, not again by every later
// episode on the replica. A cancelled episode withdraws nothing — a real
// target's clearing does I/O that must not run during shutdown.
func (hl *Healer) withdraw(ctx context.Context, ep *Episode) {
	if ctx.Err() != nil {
		return
	}
	if _, live := hl.H.Target.CorrectFix(); live {
		ep.Withdrawn = hl.H.Target.ClearFault(ep.Fault) == nil
	}
}

// HealDetected heals a failure the SLO monitor has already declared,
// without injecting anything — the scenario engine's entry point, where
// faults arrive on their own scripted timeline (possibly several at
// once) rather than one per episode. The episode's InjectedAt equals its
// DetectedAt, so TTR measures detection-through-recovery; the episode
// budget bounds the post-detection ticks. When the monitor is not
// currently failing the episode returns undetected without stepping.
func (hl *Healer) HealDetected(ctx context.Context) Episode {
	h := hl.H
	defer h.SetPaceContext(h.SetPaceContext(ctx))
	hl.episodes++
	now := h.Target.Now()
	ep := Episode{InjectedAt: now}
	if !h.Monitor.Failing() {
		hl.endEpisode()
		return ep
	}
	ep.Detected = true
	ep.DetectedAt = now
	hl.emit(Event{Kind: EventDetected, Tick: now})

	hl.attemptLoop(ctx, &ep, hl.Cfg.EpisodeBudget)
	h.Target.Reap()
	if ep.Recovered {
		hl.emit(Event{Kind: EventRecovered, Tick: ep.RecoveredAt, TTR: ep.TTR()})
	}
	hl.endEpisode()
	return ep
}

// attemptLoop drives the Figure 3 attempt/escalate loop for an
// already-detected failure, mutating ep in place. budget bounds the
// episode's total ticks measured from ep.InjectedAt.
func (hl *Healer) attemptLoop(ctx context.Context, ep *Episode, budget int) {
	h := hl.H
	fctx := h.BuildContext()
	var tried []Action
	for count := 0; ; count++ {
		if ctx.Err() != nil {
			break
		}
		if h.Target.Now()-ep.InjectedAt > int64(budget) {
			break
		}
		if count >= hl.Cfg.Threshold {
			hl.escalate(ctx, fctx, ep)
			break
		}
		action, conf, ok := hl.Approach.Recommend(fctx, tried)
		if !ok {
			hl.escalate(ctx, fctx, ep)
			break
		}
		tried = append(tried, action)
		att := Attempt{Action: action, Confidence: conf, AppliedAt: h.Target.Now()}
		// Check fix: the service must hold a full clean window (§4.1
		// "Detecting success/failure of fixes"). An action the target
		// refused failed at once: a recovery during a check window would
		// credit it with something it never did.
		refused := hl.applyAction(action) != nil
		recovered := !refused && h.RunUntilRecovered(ctx, hl.Cfg.CheckTicks)
		if ctx.Err() != nil && !recovered && !refused {
			// Cancelled mid-check: the attempt's outcome is unknown, not a
			// failure. Recording it — or worse, teaching the approach a
			// negative label — would poison the synopsis with noise.
			break
		}
		att.Success = recovered
		ep.Attempts = append(ep.Attempts, att)
		hl.observe(fctx, action, recovered)
		hl.emit(Event{
			Kind: EventAttemptApplied, Tick: h.Target.Now(),
			Action: action, Confidence: conf, Attempt: count + 1, Success: recovered,
		})
		if recovered {
			ep.Recovered = true
			ep.RecoveredAt = h.Target.Now()
			ep.CorrectFirst = count == 0
			break
		}
	}
}

// escalate applies the paper's general costly fix: full restart, notify the
// administrator, wait at human timescale, and learn from the
// administrator's fix (Figure 3 lines 18–21).
func (hl *Healer) escalate(ctx context.Context, fctx *FailureContext, ep *Episode) {
	h := hl.H
	ep.Escalated = true
	// The administrator's diagnosis is taken from the live failure state:
	// a restart may clear transient faults and erase the evidence.
	var adminAction Action
	haveAdmin := false
	if hl.AdminOracle != nil {
		adminAction, haveAdmin = hl.AdminOracle()
	}
	hl.emit(Event{Kind: EventEscalated, Tick: h.Target.Now(), Action: adminAction})
	hl.applyAction(Action{Fix: catalog.FixFullRestart})
	if _, err := h.Target.Apply(Action{Fix: catalog.FixNotifyAdmin}); err == nil {
		h.StepN(hl.Cfg.AdminDelayTicks)
	}
	if haveAdmin {
		hl.applyAction(adminAction)
		// "Update synopsis S with fix found by the administrator."
		hl.observe(fctx, adminAction, true)
	}
	if h.RunUntilRecovered(ctx, hl.Cfg.CheckTicks*4) {
		ep.Recovered = true
		ep.RecoveredAt = h.Target.Now()
	}
}
