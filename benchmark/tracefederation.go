package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"selfheal/internal/controlplane"
	"selfheal/internal/core"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// traceFederation runs the two-daemon window with a second watcher on A, so
// each probe splits into push round trip, due→visible-on-A and
// visible-on-A→visible-on-B; then it times the knowledge plane's layers in
// process — the delta codec, Node.ApplyDelta, every ops endpoint over an
// httptest server, the middleware stack and the event broker.
func traceFederation(ctx context.Context, e env) (*report, error) {
	c, err := startCluster(ctx, e)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	w, err := c.runFedWindow(ctx, e, true)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	c.fedOracle(ctx, rep)
	for _, err := range w.errs {
		rep.fail("%v", err)
	}
	lat, lost := w.propagation()
	rep.attempted, rep.failed = w.probes+len(w.scrapeLat), lost+w.httpFails

	// One root span per probe, due → visible on B, with the two hops as
	// its children; the push round trip overlaps both and stands alone.
	tr := newTracer()
	lProbe, lPush := tr.layer("probe"), tr.layer("httpapi.kb_push")
	lApply, lHop := tr.layer("kbsync.hop.a_apply"), tr.layer("kbsync.hop.a_to_b")
	for i, due := range w.due {
		atA, okA := w.seenA.at(i)
		atB, okB := w.seenB.at(i)
		tr.end(tr.begin(lPush, w.pushStart[i]), open{}, w.pushEnd[i], int64(i))
		if !okA || !okB || atB.Before(atA) {
			// The two watchers race: B's can read a marker before A's has
			// been scheduled. Such a probe has no meaningful split.
			continue
		}
		probe := tr.begin(lProbe, due)
		tr.end(tr.begin(lApply, due), probe, atA, int64(i))
		tr.end(tr.begin(lHop, atA), probe, atB, int64(i))
		tr.end(probe, open{}, atB, int64(i))
	}
	m := rep.metrics
	m["httpapi.kb_push_ms"] = lPush.meanNs() / 1e6
	m["kbsync.hop.a_apply_ms"] = lApply.meanNs() / 1e6
	m["kbsync.hop.a_to_b_ms"] = lHop.meanNs() / 1e6
	m["kbsync.hop.sum_over_propagation"] = ratio(lApply.meanNs()+lHop.meanNs(), mean(lat)*1e9)
	late, _ := tail(w.probeLate, 0.95)
	m["probe.late_p95_ms"] = late * 1e3
	m["httpapi.metrics_scrape_ms"] = median(w.metricsRT) * 1e3
	m["httpapi.healthz_ms"] = median(w.healthzRT) * 1e3

	m["selfheald.cpu_ms_per_episode"] = ratio(float64((w.useA1.cpu - w.useA0.cpu).Milliseconds()), w.grew("selfheal_episodes_injected_total"))
	m["selfheald.recovered_ratio"] = w.recoveredRatio()
	m["selfheald.startup_ms"] = float64(c.a.healthy.Microseconds()) / 1e3
	m["selfheald.rss_mb"] = w.useA1.rssMB
	received := w.afterB["selfheal_gossip_rumors_received_total"] + w.afterB["selfheal_gossip_rumors_duplicate_total"]
	m["kbsync.gossip.duplicate_ratio"] = ratio(w.afterB["selfheal_gossip_rumors_duplicate_total"], received)
	m["kbsync.gossip.pushes_failed"] = w.after["selfheal_gossip_pushes_failed_total"] + w.afterB["selfheal_gossip_pushes_failed_total"]
	// How far B's pull cursor on A trails A's own sequence when the window
	// closes: what the anti-entropy loop still has to fetch.
	lag := w.after["selfheal_kb_seq"] - w.afterB[fmt.Sprintf("selfheal_sync_peer_seq{peer=%q}", c.a.url)]
	if lag < 0 {
		lag = 0
	}
	m["kbsync.sync.end_lag_seq"] = lag
	events := w.after["selfheal_episodes_injected_total"] + w.after["selfheal_episodes_detected_total"] +
		w.after["selfheal_attempts_total"] + w.after["selfheal_episodes_escalated_total"] + w.after["selfheal_episodes_recovered_total"]
	m["controlplane.broker.dropped_ratio"] = ratio(w.after["selfheal_events_dropped_total"], events)

	if err := planeLayers(ctx, e, m); err != nil {
		return nil, err
	}
	spans := filepath.Join(filepath.Dir(e.workDir), "spans-federation-2node.jsonl")
	if err := tr.writeFile(spans); err != nil {
		return nil, err
	}
	rep.notes["spans"] = spans
	rep.notes["probes"] = fmt.Sprintf("%d probes, %d lost, %d with both hops seen in order", w.probes, lost, lProbe.count)
	return rep, nil
}

// timeEach returns the mean duration of n calls of fn.
func timeEach(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(n)
}

// planeLayers times the knowledge plane's layers one by one, in process,
// on a knowledge base of real-width points.
func planeLayers(ctx context.Context, e env, m map[string]float64) error {
	const deltaPoints = 64
	in, err := generateKBInputs(ctx, e.seed, e.scaled(20, 4), e.scaled(4096, 2048), 0)
	if err != nil {
		return err
	}
	kb := synopsis.NewShared(synopsis.NewNearestNeighbor())
	for i := 0; i < len(in.preload); i += 2 {
		kb.AddBatch(in.preload[i : i+2])
	}
	node := kbsync.NewNode(kb, nil)
	since := deltaCursor(kb, deltaPoints)
	delta := node.Delta(since)
	points := float64(len(delta.Points))

	// Delta codec.
	var wire bytes.Buffer
	m["synopsis.delta.encode_us_per_point"] = float64(timeEach(e.scaled(200, 5), func() {
		wire.Reset()
		_ = delta.Encode(&wire)
	}).Nanoseconds()) / 1e3 / points
	m["synopsis.delta.decode_us_per_point"] = float64(timeEach(e.scaled(200, 5), func() {
		_, _ = synopsis.DecodeDelta(bytes.NewReader(wire.Bytes()))
	}).Nanoseconds()) / 1e3 / points

	// Node.ApplyDelta: fresh points cost an add each, and applying the
	// same delta again must add nothing.
	peer := kbsync.NewNode(synopsis.NewShared(synopsis.NewNearestNeighbor()), nil)
	var applied, repeated int
	const deltas = 32
	t0 := time.Now()
	for i := 0; i < deltas; i++ {
		d := &synopsis.Delta{Points: in.preload[i*deltaPoints : (i+1)*deltaPoints]}
		applied += peer.ApplyDelta(d)
	}
	m["kbsync.node.applydelta_us_per_point"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(deltas*deltaPoints)
	for i := 0; i < deltas; i++ {
		d := &synopsis.Delta{Points: in.preload[i*deltaPoints : (i+1)*deltaPoints]}
		repeated += peer.ApplyDelta(d)
	}
	m["kbsync.node.dedup_ratio"] = 1 - ratio(float64(repeated), float64(applied))

	// The ops endpoints, over real HTTP on loopback.
	collector, broker := httpapi.NewCollector(), controlplane.NewBroker(0)
	defer broker.Close()
	api, err := httpapi.NewServer(httpapi.Config{Node: node, Collector: collector, Broker: broker})
	if err != nil {
		return err
	}
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	client := srv.Client()
	var fetchErr error
	fetch := func(path string, header http.Header, want int) func() {
		return func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+path, nil)
			if err != nil {
				fetchErr = err
				return
			}
			req.Header = header
			resp, err := client.Do(req)
			if err != nil {
				fetchErr = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				fetchErr = fmt.Errorf("GET %s: %s, want %d", path, resp.Status, want)
			}
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	m["httpapi.kb_delta64_ms"] = ms(timeEach(e.scaled(100, 5), fetch(fmt.Sprintf("/kb/delta?since=%d&epoch=%s", since, node.Epoch()), nil, http.StatusOK)))
	m["httpapi.kb_delta_304_ms"] = ms(timeEach(e.scaled(100, 5), fetch(fmt.Sprintf("/kb/delta?since=%d&epoch=%s", node.Seq(), node.Epoch()), nil, http.StatusNotModified)))
	m["httpapi.kb_snapshot_ms"] = ms(timeEach(e.scaled(3, 1), fetch("/kb/snapshot", nil, http.StatusOK)))
	if fetchErr != nil {
		return fetchErr
	}

	// The full middleware chain — recover, request log, rate limit, auth —
	// around a handler that does nothing, against the bare handler.
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	chain := controlplane.Chain(
		controlplane.Recover(log.New(io.Discard, "", 0)),
		controlplane.RequestLog(log.New(io.Discard, "", 0)),
		controlplane.RateLimit(controlplane.RateLimitConfig{RPS: 1e9}),
		controlplane.Auth(controlplane.AuthConfig{ReadToken: "t"}),
	)(noop)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("Authorization", "Bearer t")
	serve := func(h http.Handler) func() {
		return func() { h.ServeHTTP(httptest.NewRecorder(), req) }
	}
	requests := e.scaled(20000, 200)
	m["controlplane.middleware.overhead_us"] = float64((timeEach(requests, serve(chain)) - timeEach(requests, serve(noop))).Nanoseconds()) / 1e3

	// Broker fan-out: one Emit delivered to 1, 100 and 1,000 subscribers
	// whose buffers have room, so no event is dropped and none is read.
	const events = 64
	for _, subs := range []int{1, 100, 1000} {
		b := controlplane.NewBroker(0)
		for i := 0; i < subs; i++ {
			b.Subscribe(controlplane.SubOptions{Buffer: events})
		}
		ev := core.Event{Kind: core.EventDetected, Tick: 1}
		m[fmt.Sprintf("controlplane.broker.emit_ns.subs-%d", subs)] = float64(timeEach(events, func() { b.Emit(ev) }).Nanoseconds())
		b.Close()
	}
	return nil
}
