package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/detect"
	"selfheal/internal/targets"
)

// Runner drives one scenario through a harness/healer pair. Scripted
// actions fire from the harness's OnStep hook, so the campaign clock
// keeps running no matter which loop is stepping — a cascade's second
// fault lands mid-recovery if that is when its trigger comes due, which
// is the point. Failures are healed with Healer.HealDetected: the
// scenario owns injection, the healer owns recovery.
type Runner struct {
	// MaxEpisodes bounds healing episodes per run as a runaway guard
	// when a scripted regime keeps the SLO red permanently (default 64).
	MaxEpisodes int

	sc *Scenario
	hl *core.Healer

	spec    targets.Spec
	partial targets.PartialInjector
	shaper  targets.WorkloadShaper

	evs     []*evState
	byName  map[string]*evState
	t0      int64
	stats   Stats
	hookErr error
}

// evState is one event's runtime state.
type evState struct {
	ev    *Event
	fault targets.Fault // made once at NewRunner, reused across firings
	fired bool
	// firedAt is the scenario tick of the first firing (After anchors).
	firedAt int64
	fires   int
	// nextAt is the next scheduled firing tick; -1 = none scheduled.
	nextAt int64
	// on reports the scripted effect window: fired and not scripted-off.
	on bool
	// offAt is the scheduled flap-clear tick; -1 = none.
	offAt  int64
	cycles int
}

// NewRunner validates sc against the healer's target and prepares a
// runner. Validation is strict and early: the scenario must be
// internally consistent (Validate), written for this target kind (or
// kind-agnostic), use only fault kinds in the target's catalog, and the
// target must implement every optional capability the script exercises
// — WorkloadShaper for workload directives, PartialInjector for grey
// severity.
// Every event's fault is constructed here, deterministically, so bad
// components fail now rather than mid-run.
func NewRunner(sc *Scenario, hl *core.Healer) (*Runner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	t := hl.H.Target
	spec := t.Spec()
	if sc.Target != "" && sc.Target != spec.Name {
		return nil, fmt.Errorf("scenario %q is written for target %q, not %q", sc.Name, sc.Target, spec.Name)
	}
	r := &Runner{MaxEpisodes: 64, sc: sc, hl: hl, spec: spec, byName: make(map[string]*evState)}
	if !sc.Workload.empty() {
		shaper, ok := t.(targets.WorkloadShaper)
		if !ok {
			return nil, fmt.Errorf("scenario %q has workload directives but target %q does not implement WorkloadShaper", sc.Name, spec.Name)
		}
		r.shaper = shaper
	}
	for _, ev := range sc.Events {
		kind, err := catalog.ParseFaultKind(ev.Fault.Kind)
		if err != nil {
			return nil, err
		}
		if err := spec.ValidateKinds([]catalog.FaultKind{kind}); err != nil {
			return nil, fmt.Errorf("scenario %q event %q: %w", sc.Name, ev.Name, err)
		}
		if grey(ev.Fault.Severity) && r.partial == nil {
			partial, ok := t.(targets.PartialInjector)
			if !ok {
				return nil, fmt.Errorf("scenario %q event %q has grey severity %v but target %q does not implement PartialInjector",
					sc.Name, ev.Name, ev.Fault.Severity, spec.Name)
			}
			r.partial = partial
		}
		f, err := t.MakeFault(kind, ev.Fault.Component, ev.Fault.Magnitude, ev.Fault.Duration)
		if err != nil {
			return nil, fmt.Errorf("scenario %q event %q: %w", sc.Name, ev.Name, err)
		}
		st := &evState{ev: ev, fault: f, nextAt: -1, offAt: -1}
		if ev.Trigger.After == "" {
			st.nextAt = ev.Trigger.At
		}
		r.evs = append(r.evs, st)
		r.byName[ev.Name] = st
	}
	return r, nil
}

// grey reports whether severity scripts a sub-full injection.
func grey(severity float64) bool { return severity > 0 && severity < 1 }

// emit sends a scenario event through the healer's sink, stamped with
// the target kind (episode 0: scripted actions belong to no episode).
func (r *Runner) emit(ev core.Event) {
	if r.hl.Sink == nil {
		return
	}
	ev.Target = r.spec.Name
	r.hl.Sink.Emit(ev)
}

// Run drives the scenario to its horizon and returns the run's stats.
// The context cancels the run where it stands; stats cover what was
// observed. A Runner is single-use: Run a fresh Runner (over a fresh
// system) for every execution.
func (r *Runner) Run(ctx context.Context) (*Stats, error) {
	h := r.hl.H
	// Bind ctx to the harness clock: under a wall-clock target the
	// scenario's At/After/Every triggers fire on real time (one tick =
	// one clock period) and cancellation interrupts the pacing sleep.
	defer h.SetPaceContext(h.SetPaceContext(ctx))
	r.t0 = h.Target.Now()
	r.stats = Stats{Scenario: r.sc.Name, Target: r.spec.Name, Horizon: r.sc.Horizon}
	r.applyWorkload()

	h.OnStep = func(st detect.Sample) {
		tick := h.Target.Now() - r.t0
		if r.sc.Workload != nil && len(r.sc.Workload.Trace) > 0 {
			r.stepTrace(tick)
		}
		r.stepEvents(tick)
		if h.Monitor.SLO.Violated(st) {
			r.stats.SLOViolationTicks++
		}
	}
	defer func() { h.OnStep = nil }()

	for h.Target.Now()-r.t0 < r.sc.Horizon {
		if ctx.Err() != nil || r.hookErr != nil {
			break
		}
		h.Step()
		if h.Monitor.Failing() && r.stats.Episodes < r.MaxEpisodes {
			ep := r.hl.HealDetected(ctx)
			r.record(ep)
		}
	}
	r.hl.FlushLearned()
	r.stats.finalize()
	if r.hookErr != nil {
		return &r.stats, r.hookErr
	}
	return &r.stats, ctx.Err()
}

// record folds one healing episode into the stats.
func (r *Runner) record(ep core.Episode) {
	if !ep.Detected {
		return
	}
	r.stats.Episodes++
	r.stats.Detections++
	if ep.Escalated {
		r.stats.Escalations++
	}
	if ep.Recovered {
		r.stats.Recovered++
		r.stats.TTRs = append(r.stats.TTRs, ep.TTR())
	}
}

// applyWorkload applies the scenario's start-of-run workload directives
// and schedules its surges, emitting one event per directive.
func (r *Runner) applyWorkload() {
	w := r.sc.Workload
	if w.empty() {
		return
	}
	now := r.hl.H.Target.Now()
	apply := func(label string, f func()) {
		f()
		r.stats.WorkloadActions++
		r.emit(core.Event{Kind: core.EventScenarioWorkload, Tick: now, Label: label})
	}
	if w.Scale != 0 && len(w.Trace) == 0 {
		apply(fmt.Sprintf("scale ×%g", w.Scale), func() { r.shaper.SetLoadScale(w.Scale) })
	}
	if w.Diurnal {
		apply("diurnal on", func() { r.shaper.EnableDiurnal() })
	}
	if w.DriftPerTick != 0 {
		apply(fmt.Sprintf("drift %+g/tick", w.DriftPerTick), func() { r.shaper.SetLoadDrift(w.DriftPerTick) })
	}
	for _, s := range w.Surges {
		s := s
		apply(fmt.Sprintf("surge ×%g @ [%d,%d)", s.Factor, s.Start, s.End), func() {
			r.shaper.AddLoadSurge(now+s.Start, now+s.End, s.Factor)
		})
	}
	if len(w.Trace) > 0 {
		step := w.TraceStep
		if step <= 0 {
			step = 60
		}
		apply(fmt.Sprintf("trace playback: %d samples × %d ticks (loop %v)", len(w.Trace), step, w.TraceLoop), func() {
			r.shaper.SetLoadScale(r.traceScale(0))
		})
	}
}

// traceScale returns the traced load multiplier for a scenario tick.
func (r *Runner) traceScale(tick int64) float64 {
	w := r.sc.Workload
	step := w.TraceStep
	if step <= 0 {
		step = 60
	}
	idx := tick / step
	n := int64(len(w.Trace))
	switch {
	case w.TraceLoop:
		idx %= n
	case idx >= n:
		idx = n - 1
	}
	base := w.Scale
	if base == 0 {
		base = 1
	}
	return base * w.Trace[idx]
}

// stepTrace advances trace playback: at each segment boundary the traced
// multiplier becomes the load scale. Sample application is silent (one
// emitted event at playback start announces the trace); segment changes
// still land in WorkloadActions via the scale they set.
func (r *Runner) stepTrace(tick int64) {
	w := r.sc.Workload
	step := w.TraceStep
	if step <= 0 {
		step = 60
	}
	if tick%step == 0 {
		r.shaper.SetLoadScale(r.traceScale(tick))
	}
}

// stepEvents fires every event whose schedule comes due at tick, in
// declaration order — the deterministic tiebreak for same-tick events.
func (r *Runner) stepEvents(tick int64) {
	for _, s := range r.evs {
		tr := s.ev.Trigger
		// Resolve a cascade anchor once its referenced event has fired.
		if s.nextAt < 0 && !s.fired && tr.After != "" {
			if ref := r.byName[tr.After]; ref.fired {
				s.nextAt = ref.firedAt + tr.Delay
			}
		}
		if s.nextAt >= 0 && tick >= s.nextAt {
			r.fire(s, tick)
		}
		if s.on && s.offAt >= 0 && tick >= s.offAt {
			r.clear(s, tick)
		}
	}
}

// fire injects s's fault (full or grey) and schedules what follows: the
// flap off-phase, or the next Every repetition. A firing gated off by
// While is skipped but keeps its repeat schedule.
func (r *Runner) fire(s *evState, tick int64) {
	tr := s.ev.Trigger
	scheduleNext := func() {
		s.nextAt = -1
		if tr.Every > 0 && (tr.Count == 0 || s.fires < tr.Count) {
			s.nextAt = tick + tr.Every
		}
	}
	if tr.While != "" && !r.byName[tr.While].on {
		scheduleNext()
		return
	}
	sev := s.ev.Fault.Severity
	var err error
	if grey(sev) {
		err = r.partial.InjectPartial(s.fault, sev)
		r.stats.GreyInjections++
	} else {
		sev = 1
		err = r.hl.H.Target.Inject(s.fault)
	}
	if err != nil {
		r.hookErr = fmt.Errorf("scenario %q event %q at tick %d: %w", r.sc.Name, s.ev.Name, tick, err)
		s.nextAt = -1
		return
	}
	s.fired = true
	if s.fires == 0 {
		s.firedAt = tick
	}
	s.fires++
	s.on = true
	r.stats.Injections++
	r.emit(core.Event{
		Kind: core.EventScenarioInject, Tick: r.t0 + tick,
		Label: s.ev.Name, Fault: s.fault, Severity: sev,
	})
	if s.ev.Flap != nil {
		s.offAt = tick + s.ev.Flap.OnTicks
		s.nextAt = -1
		return
	}
	scheduleNext()
}

// clear ends a flap on-phase: revert the fault's effect, reap the
// cleared entry, and schedule the next on-phase while cycles remain.
func (r *Runner) clear(s *evState, tick int64) {
	if err := r.hl.H.Target.ClearFault(s.fault); err != nil {
		r.hookErr = fmt.Errorf("scenario %q event %q clear at tick %d: %w", r.sc.Name, s.ev.Name, tick, err)
		s.offAt = -1
		return
	}
	r.hl.H.Target.Reap()
	s.on = false
	s.offAt = -1
	s.cycles++
	r.stats.Clears++
	r.emit(core.Event{Kind: core.EventScenarioClear, Tick: r.t0 + tick, Label: s.ev.Name, Fault: s.fault})
	fl := s.ev.Flap
	if fl.Cycles == 0 || s.cycles < fl.Cycles {
		s.nextAt = tick + fl.OffTicks
	}
}

// Stats is one scenario run's outcome: the scripted-action counts, the
// healing outcomes, and the SLO damage over the horizon.
type Stats struct {
	Scenario string `json:"scenario"`
	Target   string `json:"target"`
	Horizon  int64  `json:"horizon"`

	// Scripted actions.
	Injections      int `json:"injections"`
	GreyInjections  int `json:"grey_injections"`
	Clears          int `json:"clears"`
	WorkloadActions int `json:"workload_actions"`

	// Healing outcomes.
	Detections  int `json:"detections"`
	Episodes    int `json:"episodes"`
	Recovered   int `json:"recovered"`
	Escalations int `json:"escalations"`

	// SLOViolationTicks counts ticks whose health sample violated the
	// SLO — the scenario's total user-visible damage, detected or not.
	SLOViolationTicks int64 `json:"slo_violation_ticks"`

	// TTRs are the recovered episodes' detection-through-recovery times.
	TTRs    []int64 `json:"ttrs,omitempty"`
	MeanTTR float64 `json:"mean_ttr"`
	P50TTR  int64   `json:"p50_ttr"`
	P95TTR  int64   `json:"p95_ttr"`
}

// finalize computes the derived TTR aggregates.
func (s *Stats) finalize() {
	if len(s.TTRs) == 0 {
		return
	}
	sorted := append([]int64(nil), s.TTRs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, t := range sorted {
		sum += t
	}
	s.MeanTTR = float64(sum) / float64(len(sorted))
	s.P50TTR = percentile(sorted, 0.50)
	s.P95TTR = percentile(sorted, 0.95)
}

// percentile returns the nearest-rank percentile of a sorted slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RecoveredPct returns the share of detected failures healed, in percent
// (100 when nothing was detected: no detection, no failure to lose).
func (s *Stats) RecoveredPct() float64 {
	if s.Detections == 0 {
		return 100
	}
	return 100 * float64(s.Recovered) / float64(s.Detections)
}

// Format renders the stats as a deterministic one-stanza summary.
func (s *Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q on %s over %d ticks\n", s.Scenario, s.Target, s.Horizon)
	fmt.Fprintf(&b, "  scripted: injections=%d grey=%d clears=%d workload-actions=%d\n",
		s.Injections, s.GreyInjections, s.Clears, s.WorkloadActions)
	fmt.Fprintf(&b, "  healing:  detections=%d recovered=%d (%.1f%%) escalations=%d\n",
		s.Detections, s.Recovered, s.RecoveredPct(), s.Escalations)
	fmt.Fprintf(&b, "  damage:   slo-violation-ticks=%d", s.SLOViolationTicks)
	if len(s.TTRs) > 0 {
		fmt.Fprintf(&b, " mean-ttr=%.1f p50=%d p95=%d", s.MeanTTR, s.P50TTR, s.P95TTR)
	}
	b.WriteString("\n")
	return b.String()
}

// Merge folds several runs of the *same* scenario (e.g. one per fleet
// replica) into aggregate stats: counters sum, TTR aggregates are
// recomputed over the pooled samples.
func Merge(parts ...*Stats) *Stats {
	out := &Stats{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out.Scenario == "" {
			out.Scenario, out.Target, out.Horizon = p.Scenario, p.Target, p.Horizon
		}
		out.Injections += p.Injections
		out.GreyInjections += p.GreyInjections
		out.Clears += p.Clears
		out.WorkloadActions += p.WorkloadActions
		out.Detections += p.Detections
		out.Episodes += p.Episodes
		out.Recovered += p.Recovered
		out.Escalations += p.Escalations
		out.SLOViolationTicks += p.SLOViolationTicks
		out.TTRs = append(out.TTRs, p.TTRs...)
	}
	out.finalize()
	return out
}
