// Package scenario is the adversarial scenario engine: a composable
// model of *when* faults strike and *how* the workload moves, driven
// over a campaign's logical clock against any registered target.
//
// The rest of the stack evaluates healing under single, independent
// faults on a static mix — every fault gets its own episode, every
// episode starts from health. Real incidents do not cooperate:
// failures cascade (a degraded primary, then a replica leak while the
// failover is still settling), flap (a leak that quiets whenever anyone
// looks), stay grey (sub-threshold degradation the monitor never
// declares), and ride diurnal or flash-crowd traffic. A Scenario scripts
// exactly those compositions: a timeline of fault events with
// At/After/Every/While triggers, optional duty-cycled flapping and
// fractional-severity (grey) injection, plus workload directives (scale,
// diurnal modulation, drift, surges, recorded-trace playback).
//
// A Runner drives a scripted scenario through core.Harness/Healer in
// place of the one-fault-per-episode campaign generator: scripted
// actions fire on the harness's OnStep hook (so cascades strike even
// mid-recovery, while the healer is stepping settle windows), failures
// are healed with Healer.HealDetected, and the run produces per-scenario
// Stats — recovered-%, TTR percentiles, escalations, SLO-violation
// ticks. Scenarios are deterministic: the same seed and scenario produce
// a byte-identical event stream and stats.
//
// Scenarios exist as a Go builder (New) and as a JSON file form
// (Parse/LoadFile/Encode); Library ships ready-made adversarial
// scenarios. See SCENARIOS.md for the DSL reference.
package scenario

import (
	"fmt"

	"selfheal/internal/catalog"
)

// Scenario is one scripted adversarial run: a fault timeline plus
// workload directives over a bounded horizon.
type Scenario struct {
	// Name identifies the scenario (library key, event-stream label).
	Name string `json:"name"`
	// Description is a one-line summary for catalogs and help output.
	Description string `json:"description,omitempty"`
	// Target names the target kind the scenario is written for; empty
	// means any kind whose fault catalog covers the scripted kinds.
	Target string `json:"target,omitempty"`
	// Horizon is the scripted run length in ticks after scenario start.
	Horizon int64 `json:"horizon"`
	// Workload holds the workload-plane directives (nil: leave the
	// target's own workload untouched).
	Workload *Workload `json:"workload,omitempty"`
	// Events is the fault-plane timeline, evaluated in order each tick.
	Events []*Event `json:"events,omitempty"`
}

// Workload scripts the workload plane. Scale/Diurnal/Drift apply once at
// scenario start; Surges are scheduled relative to scenario start; Trace
// replays a recorded load curve as per-segment multipliers on Scale.
type Workload struct {
	// Scale is a constant multiplier on the target's mix (0 = leave
	// unchanged, i.e. 1).
	Scale float64 `json:"scale,omitempty"`
	// Diurnal enables the ±25% day/night modulation.
	Diurnal bool `json:"diurnal,omitempty"`
	// DriftPerTick shifts the mix toward read-heavy classes every tick.
	DriftPerTick float64 `json:"drift_per_tick,omitempty"`
	// Surges multiply the whole mix by Factor over [Start, End) ticks
	// from scenario start.
	Surges []Surge `json:"surges,omitempty"`
	// Trace is a recorded load curve: each sample is a multiplier on
	// Scale held for TraceStep ticks, in order. When the trace is
	// exhausted the last sample holds, unless TraceLoop restarts it.
	Trace []float64 `json:"trace,omitempty"`
	// TraceStep is ticks per trace sample (default 60).
	TraceStep int64 `json:"trace_step,omitempty"`
	// TraceLoop replays the trace from the top when it ends.
	TraceLoop bool `json:"trace_loop,omitempty"`
}

// empty reports whether the workload block scripts nothing.
func (w *Workload) empty() bool {
	return w == nil || (w.Scale == 0 && !w.Diurnal && w.DriftPerTick == 0 &&
		len(w.Surges) == 0 && len(w.Trace) == 0)
}

// Surge is one scheduled whole-mix load surge.
type Surge struct {
	Start  int64   `json:"start"`
	End    int64   `json:"end"`
	Factor float64 `json:"factor"`
}

// Event is one scripted fault on the timeline: what to inject (Fault),
// when (Trigger), and optionally how to duty-cycle it (Flap).
type Event struct {
	// Name identifies the event within the scenario; After/While triggers
	// reference it.
	Name string `json:"name"`
	// Fault is the declarative fault spec handed to the target's
	// MakeFault.
	Fault FaultSpec `json:"fault"`
	// Trigger says when the event fires.
	Trigger Trigger `json:"trigger"`
	// Flap duty-cycles the fault: inject, clear after OnTicks, re-inject
	// after OffTicks, for Cycles cycles (0 = until the horizon); the
	// target's ClearFault does the clearing.
	Flap *Flap `json:"flap,omitempty"`
}

// FaultSpec declares a fault for the target's MakeFault.
type FaultSpec struct {
	// Kind is the canonical catalog kind name (catalog.FaultKind.String).
	Kind string `json:"kind"`
	// Component names what the fault strikes ("" = the kind's default).
	Component string `json:"component,omitempty"`
	// Magnitude is the kind's main severity knob (0 = default).
	Magnitude float64 `json:"magnitude,omitempty"`
	// Duration bounds naturally time-limited kinds like bottlenecks
	// (0 = default).
	Duration int64 `json:"duration,omitempty"`
	// Severity in (0, 1) makes the injection grey: a severity-scaled
	// fraction of the full fault, below detection thresholds, via the
	// target's PartialInjector capability. 0 or 1 injects full strength.
	Severity float64 `json:"severity,omitempty"`
}

// Trigger schedules an event. Exactly one primary applies: At (a
// scenario tick; 0 fires at scenario start) or After (delay relative to
// another event's first firing — the cascade form). Every re-fires the
// event periodically; While gates every firing on another event's
// scripted on-window.
type Trigger struct {
	// At fires the event at this tick from scenario start (primary
	// unless After is set).
	At int64 `json:"at,omitempty"`
	// After names an event; this event fires Delay ticks after the named
	// event first fires — Cascade{A then B within Δ}.
	After string `json:"after,omitempty"`
	// Delay is the After offset in ticks.
	Delay int64 `json:"delay,omitempty"`
	// Every re-fires the event every Every ticks after its first firing,
	// re-injecting the same fault instance.
	Every int64 `json:"every,omitempty"`
	// Count bounds the total firings when Every is set (0 = until the
	// horizon).
	Count int `json:"count,omitempty"`
	// While names an event; each firing is skipped unless the named
	// event's *scripted* effect is currently on (it has fired, and its
	// flap — if any — is in an on-phase). The gate reads the script, not
	// live system state, so runs stay deterministic.
	While string `json:"while,omitempty"`
}

// Flap duty-cycles a fault: OnTicks injected, OffTicks cleared, Cycles
// times (0 = until the horizon).
type Flap struct {
	OnTicks  int64 `json:"on_ticks"`
	OffTicks int64 `json:"off_ticks"`
	Cycles   int   `json:"cycles,omitempty"`
}

// Validate checks the scenario's internal consistency: a name and a
// positive horizon; uniquely named events with parseable fault kinds and
// severities in [0, 1]; After/While references to *earlier* events only
// (which rules out cycles by construction); and well-formed flap and
// repeat schedules. Target-dependent checks (catalog coverage,
// capabilities) happen at NewRunner, when a concrete target exists.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("scenario %q: horizon %d must be positive", sc.Name, sc.Horizon)
	}
	if w := sc.Workload; w != nil {
		if w.Scale < 0 {
			return fmt.Errorf("scenario %q: negative workload scale %v", sc.Name, w.Scale)
		}
		if w.TraceStep < 0 {
			return fmt.Errorf("scenario %q: negative trace step %d", sc.Name, w.TraceStep)
		}
		for _, s := range w.Surges {
			if s.End <= s.Start || s.Factor <= 0 {
				return fmt.Errorf("scenario %q: malformed surge [%d,%d)×%v", sc.Name, s.Start, s.End, s.Factor)
			}
		}
		for _, v := range w.Trace {
			if v < 0 {
				return fmt.Errorf("scenario %q: negative trace sample %v", sc.Name, v)
			}
		}
	}
	seen := make(map[string]bool, len(sc.Events))
	for i, ev := range sc.Events {
		where := fmt.Sprintf("scenario %q event %d (%q)", sc.Name, i, ev.Name)
		if ev.Name == "" {
			return fmt.Errorf("scenario %q: event %d has no name", sc.Name, i)
		}
		if seen[ev.Name] {
			return fmt.Errorf("scenario %q: duplicate event name %q", sc.Name, ev.Name)
		}
		if _, err := catalog.ParseFaultKind(ev.Fault.Kind); err != nil {
			return fmt.Errorf("%s: %v", where, err)
		}
		if ev.Fault.Severity < 0 || ev.Fault.Severity > 1 {
			return fmt.Errorf("%s: severity %v outside [0, 1]", where, ev.Fault.Severity)
		}
		tr := ev.Trigger
		if tr.At < 0 || tr.Delay < 0 || tr.Every < 0 || tr.Count < 0 {
			return fmt.Errorf("%s: negative trigger field", where)
		}
		if tr.After != "" && tr.At != 0 {
			return fmt.Errorf("%s: At and After are mutually exclusive primaries", where)
		}
		if tr.After == "" && tr.Delay != 0 {
			return fmt.Errorf("%s: Delay without After", where)
		}
		for _, ref := range []string{tr.After, tr.While} {
			if ref == "" {
				continue
			}
			if ref == ev.Name {
				return fmt.Errorf("%s: references itself", where)
			}
			if !seen[ref] {
				return fmt.Errorf("%s: references %q, which is not an earlier event", where, ref)
			}
		}
		if ev.Flap != nil {
			if ev.Flap.OnTicks <= 0 || ev.Flap.OffTicks <= 0 || ev.Flap.Cycles < 0 {
				return fmt.Errorf("%s: malformed flap (on %d, off %d, cycles %d)",
					where, ev.Flap.OnTicks, ev.Flap.OffTicks, ev.Flap.Cycles)
			}
			if tr.Every > 0 {
				return fmt.Errorf("%s: Flap and Every are mutually exclusive schedules", where)
			}
		}
		seen[ev.Name] = true
	}
	return nil
}

// Builder assembles a Scenario fluently; errors accumulate and surface
// at Build.
type Builder struct {
	sc Scenario
}

// New starts a scenario named name.
func New(name string) *Builder {
	return &Builder{sc: Scenario{Name: name}}
}

// Describe sets the one-line description.
func (b *Builder) Describe(s string) *Builder { b.sc.Description = s; return b }

// For pins the scenario to a target kind.
func (b *Builder) For(target string) *Builder { b.sc.Target = target; return b }

// Horizon sets the scripted run length in ticks.
func (b *Builder) Horizon(ticks int64) *Builder { b.sc.Horizon = ticks; return b }

// workload returns the workload block, allocating it on first use.
func (b *Builder) workload() *Workload {
	if b.sc.Workload == nil {
		b.sc.Workload = &Workload{}
	}
	return b.sc.Workload
}

// Scale sets a constant load multiplier.
func (b *Builder) Scale(f float64) *Builder { b.workload().Scale = f; return b }

// Diurnal enables day/night load modulation.
func (b *Builder) Diurnal() *Builder { b.workload().Diurnal = true; return b }

// Surge schedules a whole-mix surge over [start, end) scenario ticks.
func (b *Builder) Surge(start, end int64, factor float64) *Builder {
	w := b.workload()
	w.Surges = append(w.Surges, Surge{Start: start, End: end, Factor: factor})
	return b
}

// Trace replays a recorded load curve: each sample is a multiplier on
// Scale held for step ticks; loop restarts the trace when it ends.
func (b *Builder) Trace(step int64, loop bool, samples ...float64) *Builder {
	w := b.workload()
	w.Trace = append([]float64(nil), samples...)
	w.TraceStep = step
	w.TraceLoop = loop
	return b
}

// At scripts a fault event firing at the given scenario tick.
func (b *Builder) At(tick int64, name string, f FaultSpec) *Builder {
	b.sc.Events = append(b.sc.Events, &Event{Name: name, Fault: f, Trigger: Trigger{At: tick}})
	return b
}

// Cascade scripts correlation: the named event fires delta ticks after
// the event named first fires — A then B within Δ.
func (b *Builder) Cascade(first string, delta int64, name string, f FaultSpec) *Builder {
	b.sc.Events = append(b.sc.Events, &Event{
		Name: name, Fault: f, Trigger: Trigger{After: first, Delay: delta},
	})
	return b
}

// Every scripts a recurring fault: first at tick, then every period
// ticks, count times in total (0 = until the horizon).
func (b *Builder) Every(tick, period int64, count int, name string, f FaultSpec) *Builder {
	b.sc.Events = append(b.sc.Events, &Event{
		Name: name, Fault: f, Trigger: Trigger{At: tick, Every: period, Count: count},
	})
	return b
}

// Flapping scripts an intermittent fault: injected at tick, cleared
// after on ticks, re-injected after off ticks, for cycles cycles (0 =
// until the horizon).
func (b *Builder) Flapping(tick int64, name string, f FaultSpec, on, off int64, cycles int) *Builder {
	b.sc.Events = append(b.sc.Events, &Event{
		Name: name, Fault: f, Trigger: Trigger{At: tick},
		Flap: &Flap{OnTicks: on, OffTicks: off, Cycles: cycles},
	})
	return b
}

// While gates the most recently added event on another event's scripted
// on-window.
func (b *Builder) While(gate string) *Builder {
	if n := len(b.sc.Events); n > 0 {
		b.sc.Events[n-1].Trigger.While = gate
	}
	return b
}

// Build validates and returns the scenario.
func (b *Builder) Build() (*Scenario, error) {
	sc := b.sc
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// MustBuild is Build panicking on error, for the static library and
// tests.
func (b *Builder) MustBuild() *Scenario {
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}
