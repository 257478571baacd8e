package selfheal

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"selfheal/internal/controlplane"
	"selfheal/internal/core"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
)

// The federated knowledge plane: ServeOps makes a Fleet learning into a
// shared knowledge base one node of a distributed knowledge base, as a
// NodeSpec declares it. The node serves its ops plane — /healthz,
// /metrics, /kb/snapshot and /kb/delta over HTTP — and, when peers are
// given, runs a background syncer that keeps one long-poll parked on
// each of them and folds what they publish in with Merge semantics. In
// any connected topology (hub/spoke, chain, full mesh) the nodes
// converge: once syncing quiesces, every node ranks fixes exactly as it
// would against MergeKnowledgeBases of all nodes' snapshots. See
// KNOWLEDGE_BASES.md, "Running a federated fleet", and OPERATIONS.md.

// NodeSpec declares one node of the federated knowledge plane: where its
// ops plane listens, which peers it syncs with, and the guards in front
// of it. cmd/selfheald binds its ops flags straight into one. Serve or
// Peers must be set; every other zero field leaves its feature off.
type NodeSpec struct {
	// Serve is the ops plane's listen address (e.g. ":8701" or
	// "127.0.0.1:0"); empty for a pull-only node.
	Serve string
	// Peers are the base URLs of peer ops planes (e.g.
	// "http://host:8701") whose knowledge-base deltas this node pulls.
	Peers []string
	// AuthToken protects the read endpoints (/healthz, /metrics, /kb/*,
	// /events) with a bearer token: requests must carry
	// "Authorization: Bearer <token>" (or ?access_token=<token>, for SSE
	// clients that cannot set headers). Empty leaves reads open, a
	// metrics-scrape-friendly default. AdminToken is accepted for reads
	// too.
	AuthToken string
	// AdminToken enables the POST /admin/* verbs, protected by this
	// bearer token. Empty answers every admin verb 403 — mutation never
	// defaults open.
	AdminToken string
	// RateLimit applies a token bucket per remote address to the whole
	// ops plane: this many requests per second sustained, bursts up to
	// twice that. Requests over the limit answer 429 with Retry-After.
	// Zero is unlimited.
	RateLimit float64
	// RequestLog turns on one structured log line per ops-plane request
	// (remote, method, path, status, bytes, duration) on the process's
	// default logger.
	RequestLog bool
}

// check validates the spec and returns the shared knowledge base the
// node serves out of syn: the knowledge plane exchanges the KB's publish
// sequence, which only SharedSynopsis tracks.
func (s NodeSpec) check(syn Synopsis) (*SharedSynopsis, error) {
	switch {
	case s.Serve == "" && len(s.Peers) == 0:
		return nil, fmt.Errorf("selfheal: NodeSpec needs Serve or Peers")
	case !(s.RateLimit >= 0) || math.IsInf(s.RateLimit, 1):
		return nil, fmt.Errorf("selfheal: NodeSpec.RateLimit %v is not a finite rate >= 0", s.RateLimit)
	}
	kb, ok := syn.(*SharedSynopsis)
	if !ok || kb == nil {
		return nil, fmt.Errorf("selfheal: a federated node needs a fleet built WithSynopsis(NewSharedSynopsis(...))")
	}
	return kb, nil
}

// KnowledgeSeq returns the publish sequence of the fleet's shared
// knowledge base — its version: every Add or learn flush advances it,
// and two equal sequences on one node mean identical contents. Zero when
// the fleet has no shared knowledge base (or nothing was learned yet).
func (fl *Fleet) KnowledgeSeq() uint64 {
	if kb, ok := fl.cfg.syn.(*SharedSynopsis); ok && kb != nil {
		return kb.Seq()
	}
	return 0
}

// Ops is a running ops plane: the HTTP listener serving this node's
// health, metrics and knowledge, plus the peer syncer when peers are
// configured. Close shuts both down; cancelling the ServeOps context
// stops only the background syncer — the listener stays bound until
// Close so in-flight snapshot pulls can drain on the caller's terms.
type Ops struct {
	broker  *controlplane.Broker
	syncer  *kbsync.Syncer
	srv     *http.Server
	handler *httpapi.Server
	ln      net.Listener
	cancel  context.CancelFunc
	done    chan struct{} // closed when the serve goroutine exits
	sync    chan struct{} // closed when the syncer goroutine exits
}

// Addr returns the listener's address ("" for a pull-only node), with
// any ":0" port resolved — tests bind "127.0.0.1:0" and read it back.
func (o *Ops) Addr() string {
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr().String()
}

// URL returns the node's base URL ("" for a pull-only node) — what a
// peer lists in NodeSpec.Peers or passes to kbtool fetch.
func (o *Ops) URL() string {
	if o.ln == nil {
		return ""
	}
	return "http://" + o.Addr()
}

// SyncNow pulls every configured peer once, immediately and
// sequentially — without parking, and without waiting out a failing
// peer's backoff — so that when it returns the node holds everything
// its reachable peers had when asked. The count is what this call
// itself applied; the background long-poll races it for the same
// points. A node with no peers returns (0, nil).
func (o *Ops) SyncNow(ctx context.Context) (int, error) {
	if o.syncer == nil {
		return 0, nil
	}
	return o.syncer.SyncOnce(ctx)
}

// Peers reports each configured peer's sync state (URL, last pulled
// sequence, pulled points, consecutive failures); nil without peers.
func (o *Ops) Peers() []kbsync.PeerStatus {
	if o.syncer == nil {
		return nil
	}
	return o.syncer.Peers()
}

// Events returns the node's live event broker — the same stream
// GET /events serves, for in-process subscribers (kbtool top's tests,
// embedding programs). Never nil on an Ops returned by ServeOps.
func (o *Ops) Events() *EventBroker { return o.broker }

// Close shuts the ops plane down: parked long-polls and /events streams
// are released immediately, the syncer stops, and the HTTP server
// drains remaining in-flight requests until ctx expires. Safe to call
// twice.
func (o *Ops) Close(ctx context.Context) error {
	o.cancel()
	// Unpark before Shutdown: http.Server.Shutdown waits for in-flight
	// requests but does not cancel their contexts, so a /kb/delta
	// long-poll or an SSE subscriber would otherwise hold shutdown for
	// its full wait (up to 30s). Server.Close releases the parked
	// long-polls; Broker.Close ends every /events stream.
	if o.handler != nil {
		o.handler.Close()
	}
	o.broker.Close()
	var err error
	if o.srv != nil {
		err = o.srv.Shutdown(ctx)
		<-o.done
	}
	if o.sync != nil {
		<-o.sync
	}
	return err
}

// ServeOps starts the node spec declares on this fleet: it binds the
// listener, serves the ops endpoints, and starts the background peer
// syncer. Every precondition is checked here: Serve or Peers set, a
// finite non-negative rate limit, and a fleet built over
// NewSharedSynopsis. The returned Ops reports the bound address and
// shuts everything down on Close; cancelling ctx stops the syncer too.
//
// ServeOps re-points every replica's event sink so /metrics and
// /events see the healing, ahead of the fleet's WithEventSink consumer;
// call it before running campaigns on the fleet.
func (fl *Fleet) ServeOps(ctx context.Context, spec NodeSpec) (*Ops, error) {
	kb, err := spec.check(fl.cfg.syn)
	if err != nil {
		return nil, err
	}
	collector := httpapi.NewCollector()
	broker := controlplane.NewBroker(0)
	node := kbsync.NewNode(kb, nil)
	runCtx, cancel := context.WithCancel(ctx)
	o := &Ops{broker: broker, cancel: cancel}

	// Every knowledge-base publish becomes a kb-publish event on the
	// live stream, so an /events subscriber (or kbtool top) sees the
	// knowledge plane advance interleaved with the healing that fed it.
	kb.OnPublish(func(seq uint64) {
		broker.Emit(core.Event{
			Kind:    core.EventKBPublish,
			Replica: -1,
			Label:   fmt.Sprintf("seq %d", seq),
		})
	})

	if len(spec.Peers) > 0 {
		// Seed is deliberately left zero (clock-seeded): the campaign
		// seed makes replicas reproducible, but a fleet of daemons
		// launched with identical configs must not share poll-jitter
		// streams or they all hit their hub at the same instants.
		syncer, err := kbsync.NewSyncer(node, kbsync.Config{
			Peers: spec.Peers,
			// The last per-peer statuses outlive the sync loops on
			// /metrics, so an operator can still see which peer was
			// failing, and why, after shutdown began.
			OnStop: collector.RecordFinalPeers,
		})
		if err != nil {
			o.Close(ctx)
			return nil, err
		}
		o.syncer = syncer
		o.sync = make(chan struct{})
		go func() {
			defer close(o.sync)
			syncer.Run(runCtx)
		}()
	}

	if spec.Serve != "" {
		hooks := controlplane.AdminHooks{
			// A knowledge base without a compaction cap refuses Compact,
			// which /admin/compact answers 409.
			Compact:        kb.Compact,
			FreezeLearning: fl.FreezeLearning,
			LearningFrozen: fl.LearningFrozen,
			Drain:          fl.Drain,
			DrainStatus: func() (bool, int64) {
				return fl.Draining(), fl.ActiveEpisodes()
			},
		}
		if len(spec.Peers) > 0 {
			hooks.SyncNow = o.SyncNow
		}
		var rl *controlplane.RateLimitConfig
		if spec.RateLimit > 0 {
			rl = &controlplane.RateLimitConfig{RPS: spec.RateLimit}
		}
		handler, err := httpapi.NewServer(httpapi.Config{
			Node:      node,
			Collector: collector,
			Syncer:    o.syncer,
			Broker:    broker,
			Admin:     controlplane.NewAdmin(hooks, broker),
			Auth: controlplane.AuthConfig{
				ReadToken:  spec.AuthToken,
				AdminToken: spec.AdminToken,
			},
			RateLimit:   rl,
			LogRequests: spec.RequestLog,
			Drain:       fl,
		})
		if err != nil {
			o.Close(ctx)
			return nil, err
		}
		o.handler = handler
		ln, err := net.Listen("tcp", spec.Serve)
		if err != nil {
			o.Close(ctx)
			return nil, fmt.Errorf("selfheal: ops listener: %w", err)
		}
		o.ln = ln
		o.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
		o.done = make(chan struct{})
		go func() {
			defer close(o.done)
			if err := o.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				// The listener died underneath us; nothing to do but stop.
				_ = err
			}
		}()
	}

	// /metrics tallies the same event stream the fleet's own sink
	// consumes, and the broker fans it out live to /events subscribers;
	// both sit ahead of that sink.
	sink := core.MultiSink(collector, broker, fl.cfg.sink)
	for i, sys := range fl.replicas {
		sys.Healer.Sink = core.ReplicaSink(i, sink)
	}
	return o, nil
}
