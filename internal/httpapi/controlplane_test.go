package httpapi

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selfheal/internal/controlplane"
	"selfheal/internal/core"
	"selfheal/internal/detect"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// stubDrain is a settable Drainer.
type stubDrain struct {
	draining bool
	active   int64
}

func (d *stubDrain) Draining() bool        { return d.draining }
func (d *stubDrain) ActiveEpisodes() int64 { return d.active }

// coreEvent is a minimal event for broker-level assertions.
func coreEvent(kind string, replica int) core.Event {
	return core.Event{Kind: core.EventKind(kind), Replica: replica}
}

// newControlServer builds a Server with the full control plane mounted:
// broker, admin verbs over stub hooks, optional auth, and a drainer.
func newControlServer(t *testing.T, auth controlplane.AuthConfig, drain *stubDrain) (*Server, *controlplane.Broker) {
	t.Helper()
	space := detect.NewSymptomSpace()
	space.Indices([]string{"m.a", "m.b"})
	kb := synopsis.NewShared(synopsis.NewNearestNeighbor())
	broker := controlplane.NewBroker(32)
	frozen := false
	admin := controlplane.NewAdmin(controlplane.AdminHooks{
		FreezeLearning: func(f bool) bool { c := frozen != f; frozen = f; return c },
		LearningFrozen: func() bool { return frozen },
		Drain:          func() { drain.draining = true },
		DrainStatus:    func() (bool, int64) { return drain.draining, drain.active },
	}, broker)
	srv, err := NewServer(Config{
		Node:   kbsync.NewNode(kb, space),
		Broker: broker,
		Admin:  admin,
		Auth:   auth,
		Drain:  drain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, broker
}

// TestControlPlaneMetricsRows: the new gauges and counters appear on
// /metrics, including admin request rows for denied attempts.
func TestControlPlaneMetricsRows(t *testing.T) {
	drain := &stubDrain{}
	srv, broker := newControlServer(t, controlplane.AuthConfig{AdminToken: "adm"}, drain)

	// One live subscriber, one dropped event.
	sub := broker.Subscribe(controlplane.SubOptions{Buffer: 1})
	defer sub.Cancel()
	broker.Emit(coreEvent("detected", 0))
	broker.Emit(coreEvent("detected", 0)) // overflows the 1-slot buffer

	// An unauthenticated admin verb: denied, but counted.
	req := httptest.NewRequest(http.MethodPost, "/admin/drain", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated drain: %d, want 401", w.Code)
	}

	body := get(t, srv, "/metrics", nil).Body.String()
	for _, want := range []string{
		"selfheal_events_subscribers 1",
		"selfheal_events_dropped_total 1",
		`selfheal_admin_requests_total{verb="drain",code="401"} 1`,
		"selfheal_draining 0",
		"selfheal_active_episodes 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestAdminAuthOverServer: the mounted stack enforces admin scope while
// leaving reads open, and an authenticated verb acts.
func TestAdminAuthOverServer(t *testing.T) {
	drain := &stubDrain{}
	srv, _ := newControlServer(t, controlplane.AuthConfig{AdminToken: "adm"}, drain)

	if w := get(t, srv, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("open read refused: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/admin/drain", nil)
	req.Header.Set("Authorization", "Bearer adm")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !drain.draining {
		t.Fatalf("authenticated drain: %d (draining=%v)", w.Code, drain.draining)
	}
}

// TestHealthzAndPushWhileDraining: /healthz reports draining then
// drained, and pushed deltas are refused with 503.
func TestHealthzAndPushWhileDraining(t *testing.T) {
	drain := &stubDrain{draining: true, active: 2}
	srv, _ := newControlServer(t, controlplane.AuthConfig{}, drain)

	body := get(t, srv, "/healthz", nil).Body.String()
	if !strings.Contains(body, `"status":"draining"`) || !strings.Contains(body, `"active_episodes":2`) {
		t.Fatalf("healthz while draining: %s", body)
	}
	drain.active = 0
	body = get(t, srv, "/healthz", nil).Body.String()
	if !strings.Contains(body, `"status":"drained"`) {
		t.Fatalf("healthz when drained: %s", body)
	}

	req := httptest.NewRequest(http.MethodPost, "/kb/push", strings.NewReader("{}"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("push while draining: %d, want 503", w.Code)
	}
}

// TestEventsOverServerStack: /events streams through the full middleware
// stack (status recorder, auth) — the Flusher passthrough working end to
// end — including the ?access_token fallback.
func TestEventsOverServerStack(t *testing.T) {
	drain := &stubDrain{}
	srv, broker := newControlServer(t, controlplane.AuthConfig{ReadToken: "read"}, drain)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events?access_token=read")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for broker.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}
	broker.Emit(coreEvent("recovered", 1))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: recovered") {
			return
		}
	}
	t.Fatal("stream ended without the recovered event")
}

// TestEventsUnauthenticated: a read token protects /events too.
func TestEventsUnauthenticated(t *testing.T) {
	drain := &stubDrain{}
	srv, _ := newControlServer(t, controlplane.AuthConfig{ReadToken: "read"}, drain)
	if w := get(t, srv, "/events", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated events: %d, want 401", w.Code)
	}
}

// TestDeltaLongPollReleasedOnClose is the prompt-shutdown satellite at
// the httpapi layer: a parked ?wait= long-poll answers immediately when
// the server closes, instead of holding shutdown for its full wait.
func TestDeltaLongPollReleasedOnClose(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/kb/delta?since=0&wait=20s", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{code: resp.StatusCode}
	}()

	// Let the poll park, then close the server's control channel.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	srv.Close()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusNotModified {
			t.Fatalf("released poll: %d, want 304", r.code)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("release took %v — not prompt", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll still parked after Close")
	}
}
