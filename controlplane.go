package selfheal

import "selfheal/internal/controlplane"

// The operator control plane: the re-exports behind a federated node's
// operable surface — a live event stream (GET /events), bearer-token
// auth, per-remote rate limiting, and the POST /admin/* verbs, all
// configured by the node's NodeSpec. See OPERATIONS.md.

// EventBroker fans the fleet's healing event stream out to live
// subscribers: every event any replica emits is stamped with a
// monotonic id and delivered to each subscriber whose filter matches,
// with a bounded ring for replay and bounded per-subscriber buffers
// (a stalled consumer loses events, never stalls healing). GET /events
// serves it over SSE; Ops.Events exposes it in-process.
type EventBroker = controlplane.Broker

// StampedEvent is one event on the broker: the core Event plus its
// broker-assigned id and wall-clock arrival time.
type StampedEvent = controlplane.StampedEvent

// EventFilter selects a subset of the stream by kind and/or replica.
type EventFilter = controlplane.Filter

// EventSubOptions configures one subscription: filter, buffer size,
// and how many ring events to replay before going live.
type EventSubOptions = controlplane.SubOptions

// EventSubscription is one live subscriber: receive on C, check lost
// events with Dropped, Cancel when done.
type EventSubscription = controlplane.Subscription
