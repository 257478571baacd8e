// Package httpapi is a selfheald daemon's ops plane: a small HTTP
// surface that makes one federated healing node observable and lets
// peers pull its knowledge. It serves
//
//	GET /healthz      — liveness + knowledge-base version, JSON
//	GET /metrics      — Prometheus text: episode throughput, recovery
//	                    ratio, TTR histogram, KB size/sequence, peer sync
//	                    state
//	GET /kb/snapshot  — the full portable knowledge base (snapshot v2)
//	GET /kb/delta     — ?since=seq, the observations published after seq
//
// /kb responses carry the knowledge base's publish sequence both as an
// X-KB-Seq header and as a strong ETag, so pollers revalidate with
// If-None-Match and pay a body only when there is news. The package is
// deliberately dependency-free beyond the standard library — the daemon
// runs it next to the healing loops the way the OPHID supervisor runs
// health endpoints next to managed services.
package httpapi

import (
	"cmp"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/controlplane"
	"selfheal/internal/core"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// Collector tallies the healing event stream into the counters and TTR
// histogram /metrics serves. It is an EventSink safe for concurrent
// fleet use; attach it next to any operator console with MultiSink.
type Collector struct {
	start time.Time

	mu        sync.Mutex
	injected  int64
	detected  int64
	recovered int64
	escalated int64
	attempts  int64
	firstTry  int64
	ttrSum    int64
	ttrBucket []int64 // cumulative-style counts per ttrBounds entry

	// finalPeers is the syncer's last per-peer snapshot, flushed by
	// Syncer Config.OnStop when Run exits; /metrics keeps serving it so
	// an operator can still see why a peer was failing after the sync
	// loops stopped.
	finalPeers []kbsync.PeerStatus
}

// RecordFinalPeers keeps the syncer's shutdown snapshot for /metrics;
// wire it as the kbsync Config.OnStop callback.
func (c *Collector) RecordFinalPeers(ps []kbsync.PeerStatus) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finalPeers = ps
}

// ttrBounds are the TTR histogram's upper bounds, in simulated seconds
// (ticks). The paper's episodes recover in minutes; escalations sit at
// human timescale — the top buckets separate the two regimes.
var ttrBounds = []int64{60, 120, 300, 600, 1200, 2400, 4800}

// NewCollector starts an empty collector; uptime counts from here.
func NewCollector() *Collector {
	return &Collector{start: time.Now(), ttrBucket: make([]int64, len(ttrBounds)+1)}
}

// Emit implements core.EventSink.
func (c *Collector) Emit(ev core.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case core.EventFaultInjected:
		c.injected++
	case core.EventDetected:
		c.detected++
	case core.EventAttemptApplied:
		c.attempts++
		if ev.Success && ev.Attempt == 1 {
			c.firstTry++
		}
	case core.EventEscalated:
		c.escalated++
	case core.EventRecovered:
		c.recovered++
		c.ttrSum += ev.TTR
		i := len(ttrBounds)
		for b, le := range ttrBounds {
			if ev.TTR <= le {
				i = b
				break
			}
		}
		c.ttrBucket[i]++
	}
}

// Config assembles a Server.
type Config struct {
	// Node is the federation participant whose knowledge the /kb
	// endpoints serve. Required.
	Node *kbsync.Node
	// Collector supplies episode metrics; nil serves KB metrics only.
	Collector *Collector
	// Syncer, when the daemon also pulls peers, contributes per-peer
	// sync gauges to /metrics and /healthz.
	Syncer *kbsync.Syncer
	// Gossiper, when the daemon gossips, receives POST /kb/push bodies
	// (applying and relaying them) and contributes gossip counters to
	// /metrics. Without one, pushes still apply — straight into Node,
	// with no relay.
	Gossiper *kbsync.Gossiper
	// Catalogs is recorded in served snapshots, exactly as
	// SaveKnowledgeBase records it in files (the facade passes the
	// target registry's catalogs).
	Catalogs map[string]synopsis.TargetCatalog

	// Broker, when present, serves the live healing event stream at
	// GET /events (SSE) and contributes subscriber/drop gauges to
	// /metrics.
	Broker *controlplane.Broker
	// Admin, when present, mounts the POST /admin/* verbs and
	// contributes selfheal_admin_requests_total to /metrics.
	Admin *controlplane.Admin
	// Auth is the bearer-token policy applied to the whole plane. The
	// zero value leaves reads open; admin verbs are refused (403)
	// whenever no admin token is configured — mutation never defaults
	// open.
	Auth controlplane.AuthConfig
	// RateLimit, when non-nil, applies a per-remote token bucket to the
	// whole plane.
	RateLimit *controlplane.RateLimitConfig
	// LogRequests turns on one structured log line per request.
	LogRequests bool
	// Drain, when non-nil, reports the node's drain state: /healthz
	// reflects it and /kb/push refuses gossip with 503 while draining.
	Drain Drainer
}

// Drainer reports a draining node's progress: whether a drain was
// requested and how many episodes are still in flight.
type Drainer interface {
	Draining() bool
	ActiveEpisodes() int64
}

// Server is the ops plane's http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the middleware stack

	// closing is closed by Close: parked long-polls and SSE streams
	// release immediately instead of waiting out their windows — without
	// it, graceful shutdown stalls on http.Server.Shutdown until every
	// parked /kb/delta?wait= elapses.
	closing   chan struct{}
	closeOnce sync.Once

	pushesRejected atomic.Uint64 // /kb/push bodies refused with 400 or 413
}

// NewServer builds the handler.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("httpapi: Config.Node is required")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), closing: make(chan struct{})}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/kb/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/kb/delta", s.handleDelta)
	s.mux.HandleFunc("/kb/push", s.handlePush)
	if cfg.Broker != nil {
		s.mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			controlplane.ServeSSE(cfg.Broker, s.closing, w, r)
		})
	}
	if cfg.Admin != nil {
		cfg.Admin.Register(s.mux)
	}

	// The middleware stack wraps the whole mux, outermost first: panic
	// recovery, admin-request accounting (outside auth, so denied
	// attempts are counted), request logging, rate limiting, then auth.
	// Stages the config leaves off are nil and skipped by Chain.
	var logMW, rateMW, authMW controlplane.Middleware
	if cfg.LogRequests {
		logMW = controlplane.RequestLog(nil)
	}
	if cfg.RateLimit != nil {
		rateMW = controlplane.RateLimit(*cfg.RateLimit)
	}
	if cfg.Auth.ReadToken != "" || cfg.Auth.AdminToken != "" || cfg.Admin != nil {
		authMW = controlplane.Auth(cfg.Auth)
	}
	s.handler = controlplane.Chain(
		controlplane.Recover(nil),
		controlplane.CountAdmin(cfg.Admin),
		logMW,
		rateMW,
		authMW,
	)(s.mux)
	return s, nil
}

// Close releases every parked long-poll and SSE stream immediately.
// Call it before http.Server.Shutdown so the drain is prompt; safe to
// call twice. (The Broker is closed by its owner, which also unparks
// /events subscribers — closing here covers requests parked on this
// server's own wait logic.)
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// ServeHTTP implements http.Handler, serving through the middleware
// stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// etag renders the knowledge base's version as a strong ETag. The node's
// epoch is part of it: a restarted node re-numbers its history from
// zero, and seq 57 of one life must never revalidate seq 57 of another.
func (s *Server) etag(seq uint64) string {
	return `"kb-` + s.cfg.Node.Epoch() + `-` + strconv.FormatUint(seq, 10) + `"`
}

// handleHealthz reports liveness plus the node's knowledge version.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := struct {
		Status   string  `json:"status"`
		KBSeq    uint64  `json:"kb_seq"`
		KBPoints int     `json:"kb_points"`
		Peers    int     `json:"peers,omitempty"`
		Uptime   float64 `json:"uptime_sec,omitempty"`
		Active   int64   `json:"active_episodes,omitempty"`
	}{Status: "ok", KBSeq: s.cfg.Node.Seq(), KBPoints: s.cfg.Node.KB().TrainingSize()}
	if d := s.cfg.Drain; d != nil && d.Draining() {
		// "draining" while episodes are still in flight, "drained" once
		// the node is quiesced — the signal an orchestrator polls for
		// before taking the node away.
		st.Active = d.ActiveEpisodes()
		if st.Active > 0 {
			st.Status = "draining"
		} else {
			st.Status = "drained"
		}
	}
	if s.cfg.Syncer != nil {
		st.Peers = len(s.cfg.Syncer.Peers())
	}
	if s.cfg.Collector != nil {
		st.Uptime = time.Since(s.cfg.Collector.start).Seconds()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

// writeMetrics renders every gauge and counter the node exposes.
func (s *Server) writeMetrics(w io.Writer) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	gauge("selfheal_kb_points", "training observations in the knowledge base",
		float64(s.cfg.Node.KB().TrainingSize()))
	gauge("selfheal_kb_log_points", "retained observations in the arrival log (what a compaction cap bounds)",
		float64(s.cfg.Node.KB().LogSize()))
	gauge("selfheal_kb_seq", "knowledge-base publish sequence",
		float64(s.cfg.Node.Seq()))
	counter("selfheal_kb_pushes_rejected_total", "pushes refused as oversized, undecodable or with a malformed TTL",
		float64(s.pushesRejected.Load()))

	if b := s.cfg.Broker; b != nil {
		gauge("selfheal_events_subscribers", "live /events subscribers",
			float64(b.Subscribers()))
		counter("selfheal_events_dropped_total", "events lost to slow subscribers' bounded buffers",
			float64(b.Dropped()))
	}

	if a := s.cfg.Admin; a != nil {
		fmt.Fprintf(w, "# HELP selfheal_admin_requests_total admin verb requests by final status\n# TYPE selfheal_admin_requests_total counter\n")
		for _, row := range a.Requests() {
			fmt.Fprintf(w, "selfheal_admin_requests_total{verb=%q,code=\"%d\"} %d\n", row.Verb, row.Code, row.Count)
		}
	}

	if d := s.cfg.Drain; d != nil {
		draining := 0.0
		if d.Draining() {
			draining = 1
		}
		gauge("selfheal_draining", "1 while a drain has been requested", draining)
		gauge("selfheal_active_episodes", "episodes currently in flight", float64(d.ActiveEpisodes()))
	}

	if g := s.cfg.Gossiper; g != nil {
		st := g.Stats()
		counter("selfheal_gossip_rumors_origin_total", "rumors this node originated", float64(st.RumorsOrigin))
		counter("selfheal_gossip_rumors_relayed_total", "received rumors relayed onward", float64(st.RumorsRelayed))
		counter("selfheal_gossip_rumors_received_total", "pushes accepted for application", float64(st.RumorsReceived))
		counter("selfheal_gossip_rumors_duplicate_total", "pushes dropped by the rumor-id cache", float64(st.RumorsDuplicate))
		counter("selfheal_gossip_pushes_failed_total", "individual gossip POSTs that failed", float64(st.PushesFailed))
		counter("selfheal_gossip_points_pushed_total", "observations pushed to peers", float64(st.PointsPushed))
		counter("selfheal_gossip_points_received_total", "observations applied from pushes", float64(st.PointsReceived))
	}

	if c := s.cfg.Collector; c != nil {
		c.mu.Lock()
		uptime := time.Since(c.start).Seconds()
		counter("selfheal_episodes_injected_total", "faults injected", float64(c.injected))
		counter("selfheal_episodes_detected_total", "failures the SLO monitor declared", float64(c.detected))
		counter("selfheal_episodes_recovered_total", "episodes ending in a clean SLO window", float64(c.recovered))
		counter("selfheal_episodes_escalated_total", "episodes escalated to the administrator", float64(c.escalated))
		counter("selfheal_attempts_total", "fix attempts applied", float64(c.attempts))
		counter("selfheal_first_attempt_total", "episodes healed by their first attempt", float64(c.firstTry))
		gauge("selfheal_uptime_seconds", "seconds since the collector started", uptime)
		eps := 0.0
		if uptime > 0 {
			eps = float64(c.recovered) / uptime
		}
		gauge("selfheal_episodes_per_sec", "recovered episodes per wall-clock second", eps)
		ratio := 1.0
		if c.detected > 0 {
			ratio = float64(c.recovered) / float64(c.detected)
		}
		gauge("selfheal_recovered_ratio", "recovered / detected episodes", ratio)

		fmt.Fprintf(w, "# HELP selfheal_ttr_ticks time to repair, simulated seconds\n# TYPE selfheal_ttr_ticks histogram\n")
		cum := int64(0)
		for i, le := range ttrBounds {
			cum += c.ttrBucket[i]
			fmt.Fprintf(w, "selfheal_ttr_ticks_bucket{le=\"%d\"} %d\n", le, cum)
		}
		cum += c.ttrBucket[len(ttrBounds)]
		fmt.Fprintf(w, "selfheal_ttr_ticks_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "selfheal_ttr_ticks_sum %d\n", c.ttrSum)
		fmt.Fprintf(w, "selfheal_ttr_ticks_count %d\n", c.recovered)
		if len(c.finalPeers) > 0 {
			fmt.Fprintf(w, "# HELP selfheal_sync_peer_final_failures consecutive failures per peer when the syncer stopped, with its last error\n# TYPE selfheal_sync_peer_final_failures gauge\n")
			for _, p := range c.finalPeers {
				fmt.Fprintf(w, "selfheal_sync_peer_final_failures{peer=%q,error=%q} %d\n", p.URL, p.LastErr, p.Failures)
			}
			fmt.Fprintf(w, "# HELP selfheal_sync_peer_final_seq peer publish sequence at the last successful pull before the syncer stopped\n# TYPE selfheal_sync_peer_final_seq gauge\n")
			for _, p := range c.finalPeers {
				fmt.Fprintf(w, "selfheal_sync_peer_final_seq{peer=%q} %d\n", p.URL, p.Seq)
			}
		}
		c.mu.Unlock()
	}

	if s.cfg.Syncer != nil {
		peers := s.cfg.Syncer.Peers()
		sort.Slice(peers, func(i, j int) bool { return peers[i].URL < peers[j].URL })
		fmt.Fprintf(w, "# HELP selfheal_sync_peer_seq peer publish sequence at last successful pull\n# TYPE selfheal_sync_peer_seq gauge\n")
		for _, p := range peers {
			fmt.Fprintf(w, "selfheal_sync_peer_seq{peer=%q} %d\n", p.URL, p.Seq)
		}
		fmt.Fprintf(w, "# HELP selfheal_sync_peer_points_total new observations pulled from peer\n# TYPE selfheal_sync_peer_points_total counter\n")
		for _, p := range peers {
			fmt.Fprintf(w, "selfheal_sync_peer_points_total{peer=%q} %d\n", p.URL, p.Points)
		}
		fmt.Fprintf(w, "# HELP selfheal_sync_peer_pulls_total successful pulls from peer\n# TYPE selfheal_sync_peer_pulls_total counter\n")
		for _, p := range peers {
			fmt.Fprintf(w, "selfheal_sync_peer_pulls_total{peer=%q} %d\n", p.URL, p.Pulls)
		}
		fmt.Fprintf(w, "# HELP selfheal_sync_peer_failures consecutive failed pulls (0 = healthy)\n# TYPE selfheal_sync_peer_failures gauge\n")
		for _, p := range peers {
			fmt.Fprintf(w, "selfheal_sync_peer_failures{peer=%q} %d\n", p.URL, p.Failures)
		}
	}
}

// handleSnapshot serves the full portable knowledge base, exactly the
// file SaveKnowledgeBase writes — kbtool fetch's other end.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	// Revalidate on the sequence alone before paying the O(KB) capture:
	// a monitoring poller with a current ETag costs nothing. A write
	// racing between this check and the capture only makes the response
	// fresher than the tag promised.
	seq := s.cfg.Node.Seq()
	if r.Header.Get("If-None-Match") == s.etag(seq) {
		w.Header().Set("ETag", s.etag(seq))
		w.Header().Set("X-KB-Seq", strconv.FormatUint(seq, 10))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	snap, err := synopsis.Capture(s.cfg.Node.KB(), synopsis.SaveOptions{
		Space:   s.cfg.Node.Space(),
		Targets: s.cfg.Catalogs,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", s.etag(snap.Seq))
	w.Header().Set("X-KB-Seq", strconv.FormatUint(snap.Seq, 10))
	w.Header().Set("Content-Type", "application/json")
	// A snapshot is JSON full of repeated names: gzip shrinks it 5-10×.
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		defer zw.Close()
		snap.Encode(zw)
		return
	}
	snap.Encode(w)
}

// maxDeltaWait caps how long a long-poll request is parked.
const maxDeltaWait = 30 * time.Second

// handleDelta serves the observations published after ?since=seq. The
// response's Seq and Epoch (echoed in X-KB-Seq and the ETag) are the
// cursor for the next pull; If-None-Match with the previous ETag
// short-circuits to 304 when nothing was published since.
//
// A cursor is only trusted when it was minted in this node's life: the
// caller passes ?epoch= alongside ?since=, and any mismatch — a cursor
// from before this node restarted, whatever its number — resets the
// pull to the full history. The caller's dedup drops everything it
// already has, so the reset costs bandwidth, never correctness. Without
// the epoch a restarted node's re-numbered history could silently alias
// under an old cursor and lose knowledge for good.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	since := uint64(0)
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}
	// A missing epoch is trusted (a human with curl); kbsync.Syncer
	// always presents the epoch its cursor came from.
	epoch := r.URL.Query().Get("epoch")
	sameLife := epoch == "" || epoch == s.cfg.Node.Epoch()
	if !sameLife {
		since = 0
	}
	// ?wait= turns a would-be 304 into a long poll: the request parks
	// until a publish beats the cursor or the wait elapses (then the
	// normal logic below answers 304 after all). Foreign-epoch pulls
	// never park — they have a full history to fetch right now.
	if raw := r.URL.Query().Get("wait"); raw != "" && sameLife {
		wait, err := time.ParseDuration(raw)
		if err != nil {
			http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
			return
		}
		if wait > maxDeltaWait {
			wait = maxDeltaWait
		}
		deadline := time.NewTimer(wait)
		defer deadline.Stop()
	park:
		for since >= s.cfg.Node.Seq() {
			// Take the channel BEFORE re-checking the sequence: a
			// publish in the gap closes the taken channel, so the wait
			// below cannot miss it.
			ch := s.cfg.Node.KB().Changed()
			if since < s.cfg.Node.Seq() {
				break
			}
			select {
			case <-ch:
			case <-deadline.C:
				break park
			case <-s.closing:
				// Graceful shutdown: answer with what we have right now
				// (304, almost always) instead of holding Shutdown
				// hostage for the rest of the wait window.
				break park
			case <-r.Context().Done():
				return
			}
		}
	}
	seq := s.cfg.Node.Seq()
	tag := s.etag(seq)
	w.Header().Set("ETag", tag)
	w.Header().Set("X-KB-Seq", strconv.FormatUint(seq, 10))
	// The epoch-qualified ETag match is sufficient on its own; the bare
	// cursor only short-circuits within a confirmed same-life pull.
	if (sameLife && since == seq) || r.Header.Get("If-None-Match") == tag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if since > seq {
		since = 0
	}
	d := s.cfg.Node.Delta(since)
	w.Header().Set("ETag", s.etag(d.Seq))
	w.Header().Set("X-KB-Seq", strconv.FormatUint(d.Seq, 10))
	// Never content-encoded: raw float64s do not deflate.
	w.Header().Set("Content-Type", "application/octet-stream")
	d.Encode(w)
}

// What one push may claim: about 9,000 real-width points (a sender with
// more, say a first push after a preload, is refused and repaired by the
// pull plane) and a hop budget past any fleet diameter gossip is meant for.
const (
	maxPushBytes = 8 << 20
	maxPushTTL   = 64
)

// handlePush accepts one gossip push: a delta body (whatever Content-Type
// labels it: there is one format) with the rumor id, hop TTL, and sender
// URL in X-KB-Rumor / X-KB-TTL / X-KB-From. With a Gossiper configured
// the push runs the full rumor protocol — id dedup before the body is
// even decoded, apply, relay; without one it just applies to the node,
// which is what a one-shot script wants. The TTL is clamped to
// [1, maxPushTTL]; an oversized or undecodable body, or a TTL that is not
// a number, is refused and counted.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if d := s.cfg.Drain; d != nil && d.Draining() {
		// A draining node stops accepting new knowledge; peers fall back
		// to pulling from the rest of the mesh.
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxPushBytes)
	g, id := s.cfg.Gossiper, r.Header.Get("X-KB-Rumor")
	if g != nil && g.Seen(id) {
		// A re-delivery: drain the body so the connection is reusable,
		// and skip the decode.
		io.Copy(io.Discard, body)
		s.writePushed(w, 0)
		return
	}
	reject := func(msg string, err error) {
		s.pushesRejected.Add(1)
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, msg+": "+err.Error(), code)
	}
	ttl, err := strconv.Atoi(cmp.Or(r.Header.Get("X-KB-TTL"), "1"))
	if err != nil {
		reject("bad ttl", err)
		return
	}
	ttl = min(max(ttl, 1), maxPushTTL)
	d, err := synopsis.DecodeDelta(body)
	if err != nil {
		reject("bad delta", err)
		return
	}
	var added int
	if g != nil {
		added = g.Receive(d, id, ttl, r.Header.Get("X-KB-From"))
	} else {
		added = s.cfg.Node.ApplyDelta(d)
	}
	s.writePushed(w, added)
}

// writePushed answers a push with how many of its points were new.
func (s *Server) writePushed(w http.ResponseWriter, added int) {
	w.Header().Set("X-KB-Seq", strconv.FormatUint(s.cfg.Node.Seq(), 10))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"added\":%d}\n", added)
}
