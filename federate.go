package selfheal

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"selfheal/internal/controlplane"
	"selfheal/internal/core"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
)

// The federated knowledge plane: a Fleet configured with WithServeAddr
// and/or WithPeers becomes one node of a distributed knowledge base.
// ServeOps starts its ops plane — /healthz, /metrics, /kb/snapshot and
// /kb/delta over HTTP — and, when peers are configured, a background
// syncer that keeps one long-poll parked on each of them and folds what
// they publish in with Merge semantics. In any connected topology
// (hub/spoke, chain, full mesh) the nodes converge: once syncing
// quiesces, every node ranks fixes exactly as it would against
// MergeKnowledgeBases of all nodes' snapshots. See KNOWLEDGE_BASES.md,
// "Running a federated fleet".

// WithServeAddr makes the fleet serve its ops plane on addr (e.g.
// ":8701" or "127.0.0.1:0") once ServeOps is called. Requires a shared
// knowledge base (WithSynopsis + NewSharedSynopsis) — the ops plane
// serves that knowledge.
func WithServeAddr(addr string) Option {
	return func(c *config) error {
		if addr == "" {
			return fmt.Errorf("selfheal: WithServeAddr(\"\")")
		}
		c.serveAddr = addr
		return nil
	}
}

// WithPeers makes the fleet pull knowledge-base deltas from the given
// peer ops planes (base URLs, e.g. "http://host:8701") once ServeOps is
// called. Requires a shared knowledge base, which the pulled experience
// is folded into.
func WithPeers(urls ...string) Option {
	return func(c *config) error {
		if len(urls) == 0 {
			return fmt.Errorf("selfheal: WithPeers needs at least one URL")
		}
		c.peers = append([]string(nil), urls...)
		return nil
	}
}

// WithGossipFanout turns on the push plane: every knowledge-base publish
// is pushed to fanout peers sampled from WithPeers, epidemic style, so a
// fix learned on one node is Suggest-able fleet-wide in milliseconds
// whether or not anyone pulls from it. The pull syncer stays on as the
// anti-entropy fallback that repairs whatever a dropped push or a
// partition cost the epidemic. Requires WithPeers.
func WithGossipFanout(fanout int) Option {
	return func(c *config) error {
		if fanout <= 0 {
			return fmt.Errorf("selfheal: gossip fanout %d <= 0", fanout)
		}
		c.gossipFanout = fanout
		return nil
	}
}

// WithCompaction bounds the shared knowledge base's memory: once its
// arrival log exceeds cfg.MaxPoints, exact duplicates collapse,
// near-duplicates (within cfg.MergeRadius) merge, and the oldest
// lowest-value observations are evicted — failures before successes,
// never below cfg.MinPerAction successes per distinct action. The
// surviving set still ranks byte-identically to replaying it fresh, so
// federation keeps its convergence guarantee. Requires
// WithSynopsis(NewSharedSynopsis(...)).
func WithCompaction(cfg Compaction) Option {
	return func(c *config) error {
		c.compaction = &cfg
		return nil
	}
}

// advertisedURL is the base URL peers know this node by when serveAddr
// names one host and a fixed port, else "" (no listener, wildcard host,
// port 0). Gossip sends it as X-KB-From so no rumor is relayed to its sender.
func advertisedURL(serveAddr string) string {
	host, port, err := net.SplitHostPort(serveAddr)
	if ip := net.ParseIP(host); err != nil || host == "" || port == "0" || ip.IsUnspecified() {
		return ""
	}
	return "http://" + net.JoinHostPort(host, port)
}

// federated reports whether any federation option is set.
func (c *config) federated() bool { return c.serveAddr != "" || len(c.peers) > 0 }

// sharedKB returns the fleet's shared knowledge base, or an error when
// federation is configured over anything else: the knowledge plane
// exchanges the KB's publish sequence, which only SharedSynopsis tracks.
func (c *config) sharedKB() (*SharedSynopsis, error) {
	kb, ok := c.syn.(*SharedSynopsis)
	if !ok || kb == nil {
		return nil, fmt.Errorf("selfheal: federation (WithServeAddr/WithPeers) needs WithSynopsis(NewSharedSynopsis(...))")
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
	fleet    *Fleet
	node     *kbsync.Node
	syncer   *kbsync.Syncer
	gossiper *kbsync.Gossiper
	srv      *http.Server
	handler  *httpapi.Server
	ln       net.Listener
	cancel   context.CancelFunc
	done     chan struct{} // closed when the serve goroutine exits
	sync     chan struct{} // closed when the syncer goroutine exits
	gossip   chan struct{} // closed when the gossip goroutine exits
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
// peer passes to WithPeers or kbtool fetch.
func (o *Ops) URL() string {
	if o.ln == nil {
		return ""
	}
	return "http://" + o.Addr()
}

// KnowledgeSeq returns the served knowledge base's publish sequence.
func (o *Ops) KnowledgeSeq() uint64 { return o.node.Seq() }

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

// GossipStats snapshots the push plane's counters; ok is false when
// gossip is not configured (no WithGossipFanout).
func (o *Ops) GossipStats() (kbsync.GossipStats, bool) {
	if o.gossiper == nil {
		return kbsync.GossipStats{}, false
	}
	return o.gossiper.Stats(), true
}

// Events returns the node's live event broker — the same stream
// GET /events serves, for in-process subscribers (kbtool top's tests,
// embedding programs). Never nil on an Ops returned by ServeOps.
func (o *Ops) Events() *EventBroker { return o.fleet.broker }

// FreezeLearning freezes or thaws the fleet's learn path (see
// Fleet.FreezeLearning); POST /admin/learning acts through the same
// switch.
func (o *Ops) FreezeLearning(freeze bool) bool { return o.fleet.FreezeLearning(freeze) }

// LearningFrozen reports whether the fleet's learn path is frozen.
func (o *Ops) LearningFrozen() bool { return o.fleet.LearningFrozen() }

// Drain puts the node into drain: campaigns stop starting episodes
// (Fleet.Drain), the gossip push plane pauses both directions, and
// /healthz reports "draining" until in-flight episodes finish, then
// "drained". POST /admin/drain acts through the same path.
func (o *Ops) Drain() {
	o.fleet.Drain()
	if o.gossiper != nil {
		o.gossiper.SetPaused(true)
	}
}

// Draining reports whether Drain was requested.
func (o *Ops) Draining() bool { return o.fleet.Draining() }

// ActiveEpisodes counts episodes still in flight; after Drain, zero
// means the node is drained.
func (o *Ops) ActiveEpisodes() int64 { return o.fleet.ActiveEpisodes() }

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
	if o.fleet.broker != nil {
		o.fleet.broker.Close()
	}
	var err error
	if o.srv != nil {
		err = o.srv.Shutdown(ctx)
		<-o.done
	}
	if o.sync != nil {
		<-o.sync
	}
	if o.gossip != nil {
		<-o.gossip
	}
	return err
}

// ServeOps starts the fleet's federated knowledge plane as configured by
// WithServeAddr, WithPeers and WithGossipFanout: it binds the listener,
// serves the ops endpoints, and starts the background peer syncer. The
// returned Ops reports the bound address and shuts everything down on
// Close; cancelling ctx stops the syncer too. Calling it on a fleet with
// no federation options is an error.
func (fl *Fleet) ServeOps(ctx context.Context) (*Ops, error) {
	if !fl.cfg.federated() {
		return nil, fmt.Errorf("selfheal: ServeOps needs WithServeAddr or WithPeers")
	}
	kb, err := fl.cfg.sharedKB()
	if err != nil {
		return nil, err
	}
	node := kbsync.NewNode(kb, nil)
	runCtx, cancel := context.WithCancel(ctx)
	o := &Ops{fleet: fl, node: node, cancel: cancel}

	// Every knowledge-base publish becomes a kb-publish event on the
	// live stream, so an /events subscriber (or kbtool top) sees the
	// knowledge plane advance interleaved with the healing that fed it.
	kb.OnPublish(func(seq uint64) {
		fl.broker.Emit(core.Event{
			Kind:    core.EventKBPublish,
			Replica: -1,
			Label:   fmt.Sprintf("seq %d", seq),
		})
	})

	if fl.cfg.gossipFanout > 0 {
		if len(fl.cfg.peers) == 0 {
			cancel()
			return nil, fmt.Errorf("selfheal: WithGossipFanout needs WithPeers")
		}
		gsp, err := kbsync.NewGossiper(node, kbsync.GossipConfig{
			Peers:  fl.cfg.peers,
			Self:   advertisedURL(fl.cfg.serveAddr),
			Fanout: fl.cfg.gossipFanout,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		o.gossiper = gsp
		o.gossip = make(chan struct{})
		go func() {
			defer close(o.gossip)
			gsp.Run(runCtx)
		}()
	}

	if len(fl.cfg.peers) > 0 {
		// Seed is deliberately left zero (clock-seeded): the campaign
		// seed makes replicas reproducible, but a fleet of daemons
		// launched with identical configs must not share poll-jitter
		// streams or they all hit their hub at the same instants.
		syncer, err := kbsync.NewSyncer(node, kbsync.Config{
			Peers: fl.cfg.peers,
			// The last per-peer statuses outlive the sync loops on
			// /metrics, so an operator can still see which peer was
			// failing, and why, after shutdown began.
			OnStop: fl.collector.RecordFinalPeers,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		o.syncer = syncer
		o.sync = make(chan struct{})
		go func() {
			defer close(o.sync)
			syncer.Run(runCtx)
		}()
	}

	if fl.cfg.serveAddr != "" {
		hooks := controlplane.AdminHooks{
			FreezeLearning: fl.FreezeLearning,
			LearningFrozen: fl.LearningFrozen,
			Drain:          o.Drain,
			DrainStatus: func() (bool, int64) {
				return fl.Draining(), fl.ActiveEpisodes()
			},
		}
		if len(fl.cfg.peers) > 0 {
			hooks.SyncNow = o.SyncNow
		}
		if fl.cfg.compaction != nil {
			hooks.Compact = kb.Compact
		}
		var rl *controlplane.RateLimitConfig
		if fl.cfg.rateRPS > 0 {
			rl = &controlplane.RateLimitConfig{RPS: fl.cfg.rateRPS, Burst: fl.cfg.rateBurst}
		}
		handler, err := httpapi.NewServer(httpapi.Config{
			Node:      node,
			Collector: fl.collector,
			Syncer:    o.syncer,
			Gossiper:  o.gossiper,
			Catalogs:  TargetCatalogs(),
			Broker:    fl.broker,
			Admin:     controlplane.NewAdmin(hooks, fl.broker),
			Auth: controlplane.AuthConfig{
				ReadToken:  fl.cfg.authToken,
				AdminToken: fl.cfg.adminToken,
			},
			RateLimit:   rl,
			LogRequests: fl.cfg.logRequests,
			Drain:       fl,
		})
		if err != nil {
			o.Close(ctx)
			return nil, err
		}
		o.handler = handler
		ln, err := net.Listen("tcp", fl.cfg.serveAddr)
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
	return o, nil
}
