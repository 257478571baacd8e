package selfheal

import "selfheal/internal/core"

// The episode event stream: a Healer narrates each episode as typed events
// through a pluggable sink, so consoles and fleet aggregators consume a
// stream instead of dissecting Episode structs after the fact. Attach a
// sink with WithEventSink; Fleet replicas stamp their events with a
// replica id automatically.

// Event stream types, re-exported from internal/core.
type (
	// Event is one moment in a healing episode.
	Event = core.Event
	// EventKind discriminates healing-loop events.
	EventKind = core.EventKind
	// EventSink receives healing events; fleet sinks must be
	// concurrency-safe.
	EventSink = core.EventSink
	// EventFunc adapts a function to the EventSink interface.
	EventFunc = core.EventFunc
)

// The event vocabulary of one healing episode, in emission order.
const (
	EventFaultInjected  = core.EventFaultInjected
	EventDetected       = core.EventDetected
	EventAttemptApplied = core.EventAttemptApplied
	EventEscalated      = core.EventEscalated
	EventRecovered      = core.EventRecovered
)

// Scenario-plane events: scripted actions a scenario Runner narrates in
// between healing episodes. Event.Label carries the scripted event or
// workload-directive name; Event.Severity is the grey-injection fraction
// (1 = full strength).
const (
	EventScenarioInject   = core.EventScenarioInject
	EventScenarioClear    = core.EventScenarioClear
	EventScenarioWorkload = core.EventScenarioWorkload
)

// Control-plane events: node-scoped records (Replica is -1) the operator
// surface emits onto the same stream — admin-verb audit trails and
// knowledge-base publish markers. Event.Label carries the detail.
const (
	EventAdmin     = core.EventAdmin
	EventKBPublish = core.EventKBPublish
)
