package kbsync_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

func pt(x []float64, fix catalog.FixID, target string) synopsis.Point {
	return synopsis.Point{X: x, Action: synopsis.Action{Fix: fix, Target: target}, Success: true}
}

// newNode builds a federation node over a fresh NN knowledge base in a
// private symptom space registering the given schema.
func newNode(schema ...string) (*kbsync.Node, *synopsis.Shared) {
	space := detect.NewSymptomSpace()
	space.Indices(schema)
	kb := synopsis.NewShared(synopsis.NewNearestNeighbor())
	return kbsync.NewNode(kb, space), kb
}

func TestApplyDeltaIsIdempotent(t *testing.T) {
	node, kb := newNode("m.a", "m.b")
	d := &synopsis.Delta{
		Seq:      2,
		Symptoms: []string{"m.a", "m.b"},
		Points: []synopsis.Point{
			pt([]float64{1, 2}, catalog.FixUpdateStats, "items"),
			pt([]float64{3, 4}, catalog.FixMicrorebootEJB, "ItemBean"),
		},
	}
	if added := node.ApplyDelta(d); added != 2 {
		t.Fatalf("first apply added %d, want 2", added)
	}
	probe := []float64{1, 2}
	want := kb.RankK(probe, -1)
	// Applying the identical delta again must be a no-op: same size,
	// same sequence effect on content, byte-identical ranking.
	if added := node.ApplyDelta(d); added != 0 {
		t.Fatalf("second apply added %d, want 0", added)
	}
	if got := kb.RankK(probe, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("second apply changed ranking:\n got %+v\nwant %+v", got, want)
	}
	if kb.TrainingSize() != 2 {
		t.Fatalf("TrainingSize %d after duplicate apply, want 2", kb.TrainingSize())
	}
}

func TestApplyDeltaDedupsAgainstLocalHistory(t *testing.T) {
	node, kb := newNode("m.a", "m.b")
	// The node learned this point locally, through the KB directly (the
	// healer's path — it does not go through the Node).
	local := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	kb.Add(local)
	// A peer now sends the same canonical point (padded with a trailing
	// zero, which canonicalization must see through) plus one new one.
	d := &synopsis.Delta{
		Seq:      5,
		Symptoms: []string{"m.a", "m.b", "m.c"},
		Points: []synopsis.Point{
			pt([]float64{1, 2, 0}, catalog.FixUpdateStats, "items"),
			pt([]float64{9, 9}, catalog.FixFailoverNode, "db"),
		},
	}
	if added := node.ApplyDelta(d); added != 1 {
		t.Fatalf("apply added %d, want 1 (local duplicate must be dropped)", added)
	}
	if kb.TrainingSize() != 2 {
		t.Fatalf("TrainingSize %d, want 2", kb.TrainingSize())
	}
}

func TestApplyDeltaRemapsHeterogeneousSchemas(t *testing.T) {
	// The peer laid the same metrics out in the opposite order — the
	// registration-order freedom name tables exist for, now over the
	// wire. After remap the point must land on the receiver's own
	// dimensions exactly.
	node, kb := newNode("svc.lat", "svc.err")
	d := &synopsis.Delta{
		Seq:      1,
		Symptoms: []string{"svc.err", "svc.lat"},
		Points:   []synopsis.Point{pt([]float64{7, 3}, catalog.FixUpdateStats, "items")},
	}
	node.ApplyDelta(d)
	pts, err := kb.Export()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || !reflect.DeepEqual(pts[0].X, []float64{3, 7}) {
		t.Fatalf("remapped point %+v, want X=[3 7]", pts)
	}
	// A second delivery of the same experience under the receiver's own
	// layout is still recognized as a duplicate: canonical identity is
	// named, not positional.
	same := &synopsis.Delta{
		Seq:      2,
		Symptoms: []string{"svc.lat", "svc.err"},
		Points:   []synopsis.Point{pt([]float64{3, 7}, catalog.FixUpdateStats, "items")},
	}
	if added := node.ApplyDelta(same); added != 0 {
		t.Fatalf("re-layout of known experience added %d points", added)
	}
}

// TestSyncerTransitiveRelay proves the relay property convergence rests
// on: C pulls only from B, B pulls only from A, yet A's experience
// reaches C because applied foreign points re-enter B's delta log.
func TestSyncerTransitiveRelay(t *testing.T) {
	ctx := context.Background()
	nodeA, kbA := newNode("m.a")
	nodeB, _ := newNode("m.a")
	nodeC, kbC := newNode("m.a")

	kbA.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))

	srvA := httptest.NewServer(mustServer(t, nodeA))
	defer srvA.Close()
	srvB := httptest.NewServer(mustServer(t, nodeB))
	defer srvB.Close()

	syncBfromA, err := kbsync.NewSyncer(nodeB, kbsync.Config{Peers: []string{srvA.URL}})
	if err != nil {
		t.Fatal(err)
	}
	syncCfromB, err := kbsync.NewSyncer(nodeC, kbsync.Config{Peers: []string{srvB.URL}})
	if err != nil {
		t.Fatal(err)
	}

	if added, err := syncBfromA.SyncOnce(ctx); err != nil || added != 1 {
		t.Fatalf("B from A: added=%d err=%v", added, err)
	}
	if added, err := syncCfromB.SyncOnce(ctx); err != nil || added != 1 {
		t.Fatalf("C from B: added=%d err=%v", added, err)
	}
	if kbC.TrainingSize() != 1 {
		t.Fatalf("A's point never relayed to C through B")
	}
	// Quiesced: another round moves nothing.
	if added, _ := syncBfromA.SyncOnce(ctx); added != 0 {
		t.Fatalf("quiesced B still pulled %d points", added)
	}
	if added, _ := syncCfromB.SyncOnce(ctx); added != 0 {
		t.Fatalf("quiesced C still pulled %d points", added)
	}

	// Peer state is observable for /metrics.
	st := syncCfromB.Peers()
	if len(st) != 1 || st[0].Seq != nodeB.Seq() || st[0].Points != 1 || st[0].Failures != 0 {
		t.Fatalf("peer status %+v, want seq=%d points=1 healthy", st, nodeB.Seq())
	}
}

// TestSyncerResetsCursorAcrossPeerRestart: a peer that restarts
// re-numbers its history from zero under a fresh epoch. A poller whose
// cursor is from the old life — even one whose number happens to be
// valid in the new life — must be reset to a full pull, not served a
// silently misaligned tail.
func TestSyncerResetsCursorAcrossPeerRestart(t *testing.T) {
	ctx := context.Background()
	oldLife, oldKB := newNode("m.a")
	// Old life publishes 3 writes; the poller catches up to seq 3.
	oldKB.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	oldKB.Add(pt([]float64{2}, catalog.FixUpdateStats, "items"))
	oldKB.Add(pt([]float64{3}, catalog.FixUpdateStats, "items"))

	var current http.Handler = mustServer(t, oldLife)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.ServeHTTP(w, r)
	}))
	defer srv.Close()

	puller, pullerKB := newNode("m.a")
	s, err := kbsync.NewSyncer(puller, kbsync.Config{Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if added, err := s.SyncOnce(ctx); err != nil || added != 3 {
		t.Fatalf("first life pull: added=%d err=%v", added, err)
	}

	// The peer restarts: new process, empty KB, re-learns 4 different
	// points — its new seq (4) has already passed the poller's cursor
	// (3), the exact aliasing window.
	newLife, newKB := newNode("m.a")
	for i := 10; i < 14; i++ {
		newKB.Add(pt([]float64{float64(i)}, catalog.FixFailoverNode, "db"))
	}
	current = mustServer(t, newLife)

	if added, err := s.SyncOnce(ctx); err != nil || added != 4 {
		t.Fatalf("post-restart pull: added=%d err=%v, want all 4 new-life points", added, err)
	}
	if got := pullerKB.TrainingSize(); got != 7 {
		t.Fatalf("puller holds %d points, want 7 (3 old life + 4 new)", got)
	}
	// The cursor now lives in the new epoch and quiesces normally.
	if added, _ := s.SyncOnce(ctx); added != 0 {
		t.Fatalf("quiesced pull moved %d points", added)
	}
}

func TestSyncerSurvivesDeadPeer(t *testing.T) {
	ctx := context.Background()
	nodeA, kbA := newNode("m.a")
	nodeB, _ := newNode("m.a")
	kbA.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	srvA := httptest.NewServer(mustServer(t, nodeA))
	defer srvA.Close()

	s, err := kbsync.NewSyncer(nodeB, kbsync.Config{
		Peers: []string{srvA.URL, "http://127.0.0.1:1"}, // port 1: refused
	})
	if err != nil {
		t.Fatal(err)
	}
	added, err := s.SyncOnce(ctx)
	if added != 1 {
		t.Fatalf("live peer not pulled next to a dead one: added=%d", added)
	}
	if err == nil {
		t.Fatal("dead peer's error swallowed")
	}
	st := s.Peers()
	if st[0].Failures != 0 || st[1].Failures == 0 {
		t.Fatalf("failure accounting wrong: %+v", st)
	}
}

func mustServer(t *testing.T, node *kbsync.Node) *httpapi.Server {
	t.Helper()
	srv, err := httpapi.NewServer(httpapi.Config{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// deltaLog counts the /kb/delta requests a peer server sees: arrived
// gets each request's raw query as it comes in, returned one token as
// each is answered.
type deltaLog struct {
	arrived  chan string
	returned chan struct{}
}

func newDeltaLog() *deltaLog {
	return &deltaLog{arrived: make(chan string, 64), returned: make(chan struct{}, 64)}
}

func (l *deltaLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/kb/delta" {
			next.ServeHTTP(w, r)
			return
		}
		l.arrived <- r.URL.RawQuery
		next.ServeHTTP(w, r)
		l.returned <- struct{}{}
	})
}

// next waits for the next request to arrive and returns its query.
func (l *deltaLog) next(t *testing.T) url.Values {
	t.Helper()
	select {
	case raw := <-l.arrived:
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return q
	case <-time.After(10 * time.Second):
		t.Fatal("no /kb/delta request arrived")
		return nil
	}
}

// runSyncer runs s in the background until the test ends. Cleanups run
// last-in first-out: register the peer servers' Close before calling
// this, or Close waits out whatever poll is still parked on them.
func runSyncer(t *testing.T, s *kbsync.Syncer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestSyncerLongPollConverges pins the one background mode: an idle peer
// holds exactly one parked ?wait= request from the syncer, no second one
// is sent while it is parked, and a publish on the peer is what releases
// it — by the time the syncer comes back for more, it holds the point.
func TestSyncerLongPollConverges(t *testing.T) {
	nodeA, kbA := newNode("m.a")
	nodeB, kbB := newNode("m.a")
	reqs := newDeltaLog()
	srvA := httptest.NewServer(reqs.wrap(mustServer(t, nodeA)))
	t.Cleanup(srvA.Close)

	s, err := kbsync.NewSyncer(nodeB, kbsync.Config{Peers: []string{srvA.URL}})
	if err != nil {
		t.Fatal(err)
	}
	runSyncer(t, s)

	if q := reqs.next(t); q.Get("wait") == "" {
		t.Fatalf("background pull %v carries no ?wait=", q)
	}
	// The peer has nothing, so the request is parked inside its handler;
	// the syncer's loop is behind it and cannot have sent another.
	if len(reqs.returned) != 0 || len(reqs.arrived) != 0 {
		t.Fatalf("idle peer: %d requests answered, %d more arrived; want one parked request",
			len(reqs.returned), len(reqs.arrived))
	}

	kbA.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	<-reqs.returned
	// The syncer applies what a pull returned before it pulls again.
	if q := reqs.next(t); q.Get("since") != "1" {
		t.Fatalf("second pull presents since=%s, want 1", q.Get("since"))
	}
	if got := kbB.TrainingSize(); got != 1 {
		t.Fatalf("puller holds %d points when it re-polls, want 1", got)
	}
}

// TestSyncOnceBesideParkedPollKeepsCursorForward: POST /admin/sync pulls
// while the background poll is parked, so two answers from one peer land
// in either order. The cursor must end at the larger sequence whichever
// lands last — a delta captured earlier, a 304 for an older cursor, or
// a stale on-demand answer.
func TestSyncOnceBesideParkedPollKeepsCursorForward(t *testing.T) {
	// A scripted peer: parked (?wait=) requests block until the test
	// says what to answer; on-demand ones answer onDemand at once.
	type answer struct {
		seq         uint64
		notModified bool
	}
	parked := make(chan url.Values, 8)
	release := make(chan answer)
	var onDemand atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := answer{seq: onDemand.Load()}
		if r.URL.Query().Get("wait") != "" {
			parked <- r.URL.Query()
			select {
			case a = <-release:
			case <-r.Context().Done():
				return
			}
		}
		if a.notModified {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		(&synopsis.Delta{Seq: a.seq, Epoch: "life-1"}).Encode(w)
	}))
	t.Cleanup(srv.Close)

	node, _ := newNode("m.a")
	s, err := kbsync.NewSyncer(node, kbsync.Config{Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	runSyncer(t, s)
	// awaitPulls waits until n pulls have been recorded, then reports the cursor.
	awaitPulls := func(n uint64) uint64 {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.Peers()[0].Pulls < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d pulls recorded", s.Peers()[0].Pulls, n)
			}
			time.Sleep(time.Millisecond)
		}
		return s.Peers()[0].Seq
	}
	syncOnce := func(seq uint64) {
		t.Helper()
		onDemand.Store(seq)
		if _, err := s.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	<-parked
	syncOnce(5)
	release <- answer{seq: 3} // captured before the on-demand pull, lands after
	if got := awaitPulls(2); got != 5 {
		t.Fatalf("older delta landing last moved the cursor to %d, want 5", got)
	}

	if q := <-parked; q.Get("since") != "5" {
		t.Fatalf("next poll presents since=%s, want 5", q.Get("since"))
	}
	syncOnce(7)
	release <- answer{notModified: true} // the parked since=5 timing out
	if got := awaitPulls(4); got != 7 {
		t.Fatalf("304 for an older cursor moved the cursor to %d, want 7", got)
	}

	<-parked
	release <- answer{seq: 9}
	if got := awaitPulls(5); got != 9 {
		t.Fatalf("parked poll's delta left the cursor at %d, want 9", got)
	}
	syncOnce(8) // a stale on-demand answer after the poll moved on
	if got := s.Peers()[0].Seq; got != 9 {
		t.Fatalf("stale on-demand answer moved the cursor to %d, want 9", got)
	}
}

// TestSyncerOnStopFlushesFinalPeers pins the shutdown flush: when Run's
// context is cancelled, the final per-peer statuses — including a dead
// peer's failure streak and last error — reach the OnStop callback, so
// an ops plane can keep explaining the sync state after the loops stop.
func TestSyncerOnStopFlushesFinalPeers(t *testing.T) {
	nodeA, kbA := newNode("m.a")
	nodeB, _ := newNode("m.a")
	kbA.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	srvA := httptest.NewServer(mustServer(t, nodeA))
	defer srvA.Close()

	final := make(chan []kbsync.PeerStatus, 1)
	s, err := kbsync.NewSyncer(nodeB, kbsync.Config{
		Peers:  []string{srvA.URL, "http://127.0.0.1:1"}, // port 1: refused
		OnStop: func(ps []kbsync.PeerStatus) { final <- ps },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go s.Run(ctx)
	// Let one pull complete against each peer, then stop.
	deadline := time.Now().Add(10 * time.Second)
	for ps := s.Peers(); ps[0].Pulls == 0 || ps[1].Failures == 0; ps = s.Peers() {
		if time.Now().After(deadline) {
			t.Fatalf("first round never completed: %+v", ps)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case ps := <-final:
		if len(ps) != 2 {
			t.Fatalf("OnStop got %d peers, want 2", len(ps))
		}
		if ps[0].Seq != 1 || ps[0].Failures != 0 {
			t.Fatalf("live peer's final status wrong: %+v", ps[0])
		}
		if ps[1].Failures == 0 || ps[1].LastErr == "" {
			t.Fatalf("dead peer's final status lost its failure streak: %+v", ps[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnStop never fired after Run cancellation")
	}
}
