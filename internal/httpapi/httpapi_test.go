package httpapi

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/detect"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

func newTestServer(t *testing.T) (*Server, *synopsis.Shared, *Collector) {
	t.Helper()
	space := detect.NewSymptomSpace()
	space.Indices([]string{"m.a", "m.b"})
	kb := synopsis.NewShared(synopsis.NewNearestNeighbor())
	col := NewCollector()
	srv, err := NewServer(Config{
		Node:      kbsync.NewNode(kb, space),
		Collector: col,
		Catalogs: map[string]synopsis.TargetCatalog{
			"auction": {Description: "test", FaultKinds: []string{"deadlock"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, kb, col
}

// tag renders the ETag the server under test mints for seq.
func tag(srv *Server, seq uint64) string { return srv.etag(seq) }

func add(kb *synopsis.Shared, x ...float64) {
	kb.Add(synopsis.Point{
		X:       x,
		Action:  synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"},
		Success: true,
	})
}

func get(t *testing.T, srv *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	w := get(t, srv, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	var st struct {
		Status   string `json:"status"`
		KBSeq    uint64 `json:"kb_seq"`
		KBPoints int    `json:"kb_points"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.KBSeq != 1 || st.KBPoints != 1 {
		t.Fatalf("healthz body %+v", st)
	}
}

func TestDeltaEndpointSequenceAndETag(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	add(kb, 3, 4)

	w := get(t, srv, "/kb/delta?since=0", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delta = %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("X-KB-Seq") != "2" || w.Header().Get("ETag") != tag(srv, 2) {
		t.Fatalf("headers seq=%q etag=%q", w.Header().Get("X-KB-Seq"), w.Header().Get("ETag"))
	}
	d, err := synopsis.DecodeDelta(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 2 || len(d.Points) != 2 || len(d.Symptoms) != 2 {
		t.Fatalf("delta %+v", d)
	}
	if d.Epoch == "" {
		t.Fatal("delta carries no epoch")
	}

	// A caught-up cursor answers 304 with no body.
	w = get(t, srv, "/kb/delta?since=2", nil)
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("caught-up delta = %d body=%q", w.Code, w.Body)
	}
	// So does a matching If-None-Match, whatever the cursor.
	w = get(t, srv, "/kb/delta?since=1", map[string]string{"If-None-Match": tag(srv, 2)})
	if w.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match delta = %d", w.Code)
	}
	// A partial cursor gets only the tail.
	w = get(t, srv, "/kb/delta?since=1", nil)
	d, err = synopsis.DecodeDelta(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Points) != 1 {
		t.Fatalf("since=1 returned %d points, want 1", len(d.Points))
	}
}

func TestDeltaEndpointResetsFutureCursor(t *testing.T) {
	// A cursor beyond this node's sequence is from a previous life of
	// the node (it restarted smaller): answer with the full history so
	// the caller resets, rather than starving it with 304s forever.
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	w := get(t, srv, "/kb/delta?since=99", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("future cursor = %d", w.Code)
	}
	d, err := synopsis.DecodeDelta(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Since != 0 || len(d.Points) != 1 || d.Seq != 1 {
		t.Fatalf("future cursor delta %+v, want full history", d)
	}
}

func TestDeltaEndpointResetsForeignEpochCursor(t *testing.T) {
	// A cursor minted by a previous life of this node (the node
	// restarted and re-numbered its history) must not alias into the
	// new numbering — whatever its value, a foreign epoch resets the
	// pull to the full history, and a stale epoch-qualified ETag must
	// not produce a false 304.
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	add(kb, 3, 4)
	w := get(t, srv, "/kb/delta?since=2&epoch=previous-life",
		map[string]string{"If-None-Match": `"kb-previous-life-2"`})
	if w.Code != http.StatusOK {
		t.Fatalf("foreign-epoch cursor = %d, want 200 full history", w.Code)
	}
	d, err := synopsis.DecodeDelta(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Since != 0 || len(d.Points) != 2 {
		t.Fatalf("foreign-epoch delta %+v, want full history", d)
	}
	// A matching epoch with the same cursor is a normal caught-up 304.
	w = get(t, srv, "/kb/delta?since=2&epoch="+srv.cfg.Node.Epoch(), nil)
	if w.Code != http.StatusNotModified {
		t.Fatalf("same-epoch caught-up cursor = %d, want 304", w.Code)
	}
}

func TestDeltaEndpointRejectsBadSince(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if w := get(t, srv, "/kb/delta?since=banana", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad since = %d", w.Code)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	w := get(t, srv, "/kb/snapshot", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot = %d", w.Code)
	}
	snap, err := synopsis.Decode(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != synopsis.FormatV2 || len(snap.Points) != 1 || snap.Seq != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if _, ok := snap.Targets["auction"]; !ok {
		t.Fatal("snapshot lost the target catalogs")
	}
	// Revalidation: the ETag answers 304 until the KB changes.
	tag := w.Header().Get("ETag")
	if w = get(t, srv, "/kb/snapshot", map[string]string{"If-None-Match": tag}); w.Code != http.StatusNotModified {
		t.Fatalf("unchanged snapshot = %d", w.Code)
	}
	add(kb, 3, 4)
	if w = get(t, srv, "/kb/snapshot", map[string]string{"If-None-Match": tag}); w.Code != http.StatusOK {
		t.Fatalf("changed snapshot = %d", w.Code)
	}
}

func TestMetrics(t *testing.T) {
	srv, kb, col := newTestServer(t)
	add(kb, 1, 2)
	col.Emit(core.Event{Kind: core.EventFaultInjected})
	col.Emit(core.Event{Kind: core.EventDetected})
	col.Emit(core.Event{Kind: core.EventAttemptApplied, Attempt: 1, Success: true})
	col.Emit(core.Event{Kind: core.EventRecovered, TTR: 90})

	w := get(t, srv, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"selfheal_kb_points 1",
		"selfheal_kb_seq 1",
		"selfheal_episodes_injected_total 1",
		"selfheal_episodes_recovered_total 1",
		"selfheal_first_attempt_total 1",
		"selfheal_recovered_ratio 1",
		`selfheal_ttr_ticks_bucket{le="60"} 0`,
		`selfheal_ttr_ticks_bucket{le="120"} 1`,
		`selfheal_ttr_ticks_bucket{le="+Inf"} 1`,
		"selfheal_ttr_ticks_sum 90",
		"selfheal_ttr_ticks_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, path := range []string{"/healthz", "/metrics", "/kb/snapshot", "/kb/delta"} {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, w.Code)
		}
	}
}

// pushDelta POSTs a delta to /kb/push.
func pushDelta(t *testing.T, srv *Server, d *synopsis.Delta, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/kb/push", &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// onePointDelta is the smallest delta worth pushing.
func onePointDelta() *synopsis.Delta {
	return &synopsis.Delta{
		Seq:      1,
		Symptoms: []string{"m.a", "m.b"},
		Points: []synopsis.Point{{
			X:       []float64{1, 2},
			Action:  synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"},
			Success: true,
		}},
	}
}

// TestPushEndpointAppliesDelta pins the no-gossiper push path: a delta
// lands in the node, idempotently and whatever Content-Type labels it;
// a body that is not a delta answers 400.
func TestPushEndpointAppliesDelta(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	d := onePointDelta()
	w := pushDelta(t, srv, d, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("push = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Added int `json:"added"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Added != 1 || kb.TrainingSize() != 1 {
		t.Fatalf("push added %d (KB %d), want 1", resp.Added, kb.TrainingSize())
	}
	// Same push again, mislabelled as JSON the way older senders do:
	// there is one delta format, so the label is ignored. Idempotent.
	w = pushDelta(t, srv, d, map[string]string{"Content-Type": "application/json"})
	if w.Code != http.StatusOK {
		t.Fatalf("second push = %d: %s", w.Code, w.Body)
	}
	if kb.TrainingSize() != 1 {
		t.Fatalf("duplicate push grew the KB to %d", kb.TrainingSize())
	}

	// Garbage, and the JSON delta of the retired format 1, answer 400.
	for _, body := range []string{"{nope", `{"version":1,"since":0,"seq":1,"points":[]}`} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/kb/push", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("push of %q = %d, want 400", body, rec.Code)
		}
	}
}

// TestPushBoundsBodyAndTTL pins what /kb/push refuses and what it
// clamps: a body over the cap answers 413 without being decoded, a
// malformed TTL 400, both counted on /metrics; a numeric TTL outside
// [1, maxPushTTL] is clamped, so a negative one is never relayed and a
// huge one relays with the ceiling less the hop just taken.
func TestPushBoundsBodyAndTTL(t *testing.T) {
	relayedTTL := make(chan string, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		relayedTTL <- r.Header.Get("X-KB-TTL")
	}))
	defer peer.Close()
	space := detect.NewSymptomSpace()
	space.Indices([]string{"m.a", "m.b"})
	node := kbsync.NewNode(synopsis.NewShared(synopsis.NewNearestNeighbor()), space)
	gsp, err := kbsync.NewGossiper(node, kbsync.GossipConfig{Peers: []string{peer.URL}, Fanout: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Node: node, Gossiper: gsp})
	if err != nil {
		t.Fatal(err)
	}

	d := onePointDelta()
	if w := pushDelta(t, srv, d, map[string]string{"X-KB-Rumor": "p:1", "X-KB-TTL": "zork"}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad-ttl push = %d, want 400", w.Code)
	}
	// A valid header over a body one byte past the cap.
	var huge bytes.Buffer
	d.Encode(&huge)
	huge.Write(make([]byte, maxPushBytes+1-huge.Len()))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/kb/push", &huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized push = %d, want 413", rec.Code)
	}
	// A declared count the body cannot hold is refused before anything
	// is allocated for it.
	var lying bytes.Buffer
	(&synopsis.Delta{}).Encode(&lying)
	body := append(lying.Bytes()[:lying.Len()-1], 0xff, 0xff, 0xff, 0xff, 0x0f) // 2^32-1 points
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/kb/push", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized-count push = %d, want 400", rec.Code)
	}
	if node.KB().TrainingSize() != 0 {
		t.Fatalf("refused pushes left %d points in the KB", node.KB().TrainingSize())
	}
	if m := get(t, srv, "/metrics", nil).Body.String(); !strings.Contains(m, "selfheal_kb_pushes_rejected_total 3\n") {
		t.Fatalf("metrics do not count 3 rejected pushes:\n%s", m)
	}

	if w := pushDelta(t, srv, d, map[string]string{"X-KB-Rumor": "p:1", "X-KB-TTL": "-5"}); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"added":1`) {
		t.Fatalf("negative-ttl push = %d %s, want it applied", w.Code, w.Body)
	}
	if st := gsp.Stats(); st.RumorsRelayed != 0 {
		t.Fatalf("a TTL of -5 was relayed: %+v", st)
	}
	d.Points[0].X = []float64{3, 4}
	if w := pushDelta(t, srv, d, map[string]string{"X-KB-Rumor": "p:2", "X-KB-TTL": "2000000000"}); w.Code != http.StatusOK {
		t.Fatalf("huge-ttl push = %d %s", w.Code, w.Body)
	}
	if got, want := <-relayedTTL, strconv.Itoa(maxPushTTL-1); got != want {
		t.Fatalf("a TTL of 2000000000 relayed as %s, want %s", got, want)
	}
}

// TestPushSeenRumorSkipsDecode pins where a gossiping node spends on a
// re-delivery: the rumor id is checked before the body is touched, so a
// seen id is answered {"added":0} even over a body that would not parse.
func TestPushSeenRumorSkipsDecode(t *testing.T) {
	space := detect.NewSymptomSpace()
	space.Indices([]string{"m.a", "m.b"})
	node := kbsync.NewNode(synopsis.NewShared(synopsis.NewNearestNeighbor()), space)
	gsp, err := kbsync.NewGossiper(node, kbsync.GossipConfig{Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Node: node, Gossiper: gsp})
	if err != nil {
		t.Fatal(err)
	}
	rumor := map[string]string{"X-KB-Rumor": "peerX:1"}
	if w := pushDelta(t, srv, onePointDelta(), rumor); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"added":1`) {
		t.Fatalf("first delivery = %d %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodPost, "/kb/push", strings.NewReader("not a delta"))
	req.Header.Set("X-KB-Rumor", "peerX:1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"added":0`) {
		t.Fatalf("re-delivery over an unparseable body = %d %s; the id check must come first", rec.Code, rec.Body)
	}
	if st := gsp.Stats(); st.RumorsReceived != 1 || st.RumorsDuplicate != 1 {
		t.Fatalf("stats = %+v, want one received and one duplicate", st)
	}
	// The same body under an unseen id is still refused.
	req = httptest.NewRequest(http.MethodPost, "/kb/push", strings.NewReader("not a delta"))
	req.Header.Set("X-KB-Rumor", "peerX:2")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage under a fresh id = %d, want 400", rec.Code)
	}
}

// TestDeltaLongPollWakesOnPublish parks a ?wait= pull, publishes from
// another goroutine, and expects the parked request to return the new
// point well before the wait elapses.
func TestDeltaLongPollWakesOnPublish(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- get(t, srv, "/kb/delta?since=1&wait=10s", nil)
	}()
	// Let the poller park, then publish.
	time.Sleep(20 * time.Millisecond)
	add(kb, 3, 4)
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Fatalf("long poll = %d", w.Code)
		}
		d, err := synopsis.DecodeDelta(w.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Points) != 1 || d.Seq != 2 {
			t.Fatalf("long poll returned %d points at seq %d, want the 1 new point at 2", len(d.Points), d.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on publish")
	}
}

// TestDeltaLongPollTimesOutTo304 pins the idle path: nothing published,
// the wait elapses, the answer is a 304 with the current ETag.
func TestDeltaLongPollTimesOutTo304(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	start := time.Now()
	w := get(t, srv, "/kb/delta?since=1&wait=50ms", nil)
	if w.Code != http.StatusNotModified {
		t.Fatalf("idle long poll = %d, want 304", w.Code)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("long poll answered after %v; it never parked", elapsed)
	}
	if w := get(t, srv, "/kb/delta?since=1&wait=bogus", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad wait = %d, want 400", w.Code)
	}
}

// TestDeltaGzipNegotiation pins that deltas do not negotiate: whatever
// Accept-Encoding a pull presents, the response is never content-encoded
// and its body decodes with DecodeDelta as is (a delta is mostly raw
// float64s, which do not deflate). The snapshot, the human-readable
// JSON view, still compresses on request.
func TestDeltaGzipNegotiation(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	add(kb, 3, 4)

	plain := get(t, srv, "/kb/delta?since=0", nil)
	for _, accept := range []string{"gzip", "gzip, deflate, br", "identity", "*"} {
		w := get(t, srv, "/kb/delta?since=0", map[string]string{"Accept-Encoding": accept})
		if enc := w.Header().Get("Content-Encoding"); enc != "" {
			t.Fatalf("Accept-Encoding %q: delta is content-encoded %q", accept, enc)
		}
		if !bytes.Equal(w.Body.Bytes(), plain.Body.Bytes()) {
			t.Fatalf("Accept-Encoding %q changed the delta body", accept)
		}
		d, err := synopsis.DecodeDelta(w.Body)
		if err != nil {
			t.Fatalf("Accept-Encoding %q: %v", accept, err)
		}
		if len(d.Points) != 2 || d.Seq != 2 {
			t.Fatalf("Accept-Encoding %q: %d points at seq %d, want 2 at 2", accept, len(d.Points), d.Seq)
		}
	}

	zsnap := get(t, srv, "/kb/snapshot", map[string]string{"Accept-Encoding": "gzip"})
	if enc := zsnap.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("snapshot Content-Encoding %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(zsnap.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synopsis.Decode(zr); err != nil {
		t.Fatalf("gzipped snapshot does not decode: %v", err)
	}
}

// TestMetricsFinalPeers pins the shutdown flush surface: once the
// syncer's last per-peer snapshot is recorded, /metrics explains the
// failing peer (URL, error, failure streak) even with the syncer gone.
func TestMetricsFinalPeers(t *testing.T) {
	srv, _, col := newTestServer(t)
	col.RecordFinalPeers([]kbsync.PeerStatus{
		{URL: "http://a:1", Seq: 12, Pulls: 30},
		{URL: "http://b:2", Seq: 3, Failures: 7, LastErr: "connection refused"},
	})
	body := get(t, srv, "/metrics", nil).Body.String()
	for _, want := range []string{
		`selfheal_sync_peer_final_failures{peer="http://a:1",error=""} 0`,
		`selfheal_sync_peer_final_failures{peer="http://b:2",error="connection refused"} 7`,
		`selfheal_sync_peer_final_seq{peer="http://a:1"} 12`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestMetricsKBLogGauge pins the memory gauge compaction bounds.
func TestMetricsKBLogGauge(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	add(kb, 1, 2)
	add(kb, 1, 2) // duplicate: log 2, training 1
	body := get(t, srv, "/metrics", nil).Body.String()
	if !strings.Contains(body, "selfheal_kb_log_points 2") {
		t.Errorf("metrics missing selfheal_kb_log_points 2")
	}
}

// TestConcurrentGzipResponsesMatchPlainBodies hammers /kb/delta and
// /kb/snapshot from several goroutines at once, every request accepting
// gzip. A snapshot must come back gzipped and gunzip to exactly the bytes
// the same request gets uncompressed; a delta must come back raw and
// equal, byte for byte, an encode no other response shares. Run it with
// -race -count=10.
func TestConcurrentGzipResponsesMatchPlainBodies(t *testing.T) {
	srv, kb, _ := newTestServer(t)
	for i := 0; i < 300; i++ {
		add(kb, float64(i), float64(i%7))
	}
	paths := []string{"/kb/snapshot", "/kb/delta?since=0", "/kb/delta?since=1", "/kb/delta?since=150", "/kb/delta?since=299"}
	plain := make(map[string][]byte)
	for _, p := range paths {
		plain[p] = get(t, srv, p, nil).Body.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := paths[(g+i)%len(paths)]
				w := get(t, srv, p, map[string]string{"Accept-Encoding": "gzip"})
				body, snapshot := w.Body.Bytes(), p == "/kb/snapshot"
				if enc := w.Header().Get("Content-Encoding"); (enc == "gzip") != snapshot {
					t.Errorf("%s: Content-Encoding %q", p, enc)
					return
				}
				if snapshot {
					zr, err := gzip.NewReader(w.Body)
					if err != nil {
						t.Errorf("%s: %v", p, err)
						return
					}
					if body, err = io.ReadAll(zr); err != nil {
						t.Errorf("%s: %v", p, err)
						return
					}
				}
				if !bytes.Equal(body, plain[p]) {
					t.Errorf("%s: answered %d bytes that are not the %d plain ones", p, len(body), len(plain[p]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
