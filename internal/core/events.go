package core

// The healing loop narrates itself through typed events so that observers
// — operator consoles, fleet aggregators, log shippers — consume a stream
// instead of poking at Episode fields after the fact. One episode emits, in
// order: FaultInjected, then (if the fault becomes SLO-visible) Detected,
// then one AttemptApplied per Figure 3 iteration, possibly Escalated, and
// finally Recovered when the service holds a clean window again.

// EventKind discriminates healing-loop events.
type EventKind string

// The event vocabulary of one healing episode.
const (
	// EventFaultInjected marks the fault entering the service.
	EventFaultInjected EventKind = "fault-injected"
	// EventDetected marks the SLO monitor declaring the failure.
	EventDetected EventKind = "detected"
	// EventAttemptApplied marks one fix attempt and its verified outcome.
	EventAttemptApplied EventKind = "attempt-applied"
	// EventEscalated marks the general costly fix: full restart plus
	// administrator notification (Figure 3 lines 18–21).
	EventEscalated EventKind = "escalated"
	// EventRecovered marks the service holding a full clean SLO window.
	EventRecovered EventKind = "recovered"

	// EventScenarioInject marks a scripted scenario fault entering the
	// target (Severity below 1 is a grey injection).
	EventScenarioInject EventKind = "scenario-inject"
	// EventScenarioClear marks a scripted clear of a scenario fault —
	// the off-phase of a flapping fault, not a healed recovery.
	EventScenarioClear EventKind = "scenario-clear"
	// EventScenarioWorkload marks a scripted workload directive (scale,
	// diurnal, drift, surge, trace playback) taking effect.
	EventScenarioWorkload EventKind = "scenario-workload"

	// EventAdmin is the audit record of one control-plane admin verb
	// (sync, compact, learning freeze/thaw, drain). Label names the verb
	// and its outcome; Replica is -1 — the verb acts on the node, not on
	// any one replica.
	EventAdmin EventKind = "admin"
	// EventKBPublish marks a knowledge-base publish — local learning, a
	// pulled delta, or a pushed delta landing. Label carries the publish
	// sequence; it is the stream's view of knowledge-plane motion.
	EventKBPublish EventKind = "kb-publish"
)

// Event is one moment in a healing episode. Fields beyond Kind, Replica,
// Episode and Tick are populated per kind: Fault on FaultInjected; Action,
// Confidence, Attempt and Success on AttemptApplied; Action (the
// administrator's fix, when known) on Escalated; TTR on Recovered.
type Event struct {
	Kind EventKind
	// Replica identifies the emitting replica in a fleet (0 standalone).
	Replica int
	// Target names the emitting system's target kind ("auction",
	// "replicated", ...) — how consumers tell the streams of a
	// heterogeneous fleet apart.
	Target string
	// Episode is the healer's episode sequence number, starting at 1.
	Episode int
	// Tick is the simulated time of the event.
	Tick int64
	// Fault is the injected fault (FaultInjected only).
	Fault Fault
	// Action is the fix applied (AttemptApplied, Escalated).
	Action Action
	// Confidence is the approach's confidence in the action.
	Confidence float64
	// Attempt is the 1-based attempt number within the episode.
	Attempt int
	// Success reports whether the attempt recovered the service.
	Success bool
	// TTR is injection-through-recovery in ticks (Recovered only).
	TTR int64
	// Label names the scripted scenario event or workload directive that
	// produced this event (scenario kinds only).
	Label string
	// Severity is the injection severity in (0, 1]; 1 is a full-strength
	// injection, anything lower a grey one (ScenarioInject only).
	Severity float64
}

// EventSink receives healing events. A sink attached to a Fleet must be
// safe for concurrent use; replicas emit from independent goroutines.
type EventSink interface {
	Emit(Event)
}

// EventFunc adapts a function to the EventSink interface.
type EventFunc func(Event)

// Emit implements EventSink.
func (f EventFunc) Emit(ev Event) { f(ev) }

// MultiSink fans one event stream out to several sinks in order.
func MultiSink(sinks ...EventSink) EventSink {
	return EventFunc(func(ev Event) {
		for _, s := range sinks {
			if s != nil {
				s.Emit(ev)
			}
		}
	})
}

// ReplicaSink stamps every event with a replica id before forwarding —
// how a Fleet disambiguates the interleaved streams of its workers.
func ReplicaSink(replica int, sink EventSink) EventSink {
	return EventFunc(func(ev Event) {
		ev.Replica = replica
		sink.Emit(ev)
	})
}
