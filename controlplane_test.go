package selfheal_test

// Control-plane e2e tests: a federated fleet's operator surface driven
// over real HTTP — the SSE event stream observing live healing, the
// admin verbs acting on the running fleet behind bearer-token auth, the
// learning freeze measurably stopping knowledge growth, drain semantics,
// and prompt shutdown of parked long-polls and streams.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/synopsis"
)

// opsFleet builds a fleet with a shared KB and serves spec on a
// loopback port, returning the fleet, its KB, and the running ops plane.
func opsFleet(t *testing.T, replicas int, spec selfheal.NodeSpec) (*selfheal.Fleet, *selfheal.SharedSynopsis, *selfheal.Ops) {
	t.Helper()
	kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleet, err := selfheal.NewFleet(context.Background(), replicas,
		selfheal.WithSeed(11),
		selfheal.WithSynopsis(kb))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	spec.Serve = "127.0.0.1:0"
	ops, err := fleet.ServeOps(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ops.Close(ctx)
	})
	return fleet, kb, ops
}

// postVerb fires one admin verb with an optional token and body.
func postVerb(t *testing.T, ops *selfheal.Ops, verb, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ops.URL()+"/admin/"+verb, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestSSEObservesLiveHealing is the tentpole e2e: an SSE subscriber
// attached before a campaign sees a recovered event streamed live, with
// the right kind and a valid replica stamp, and kb-publish events as the
// knowledge plane advances.
func TestSSEObservesLiveHealing(t *testing.T) {
	fleet, _, ops := opsFleet(t, 2, selfheal.NodeSpec{})

	resp, err := http.Get(ops.URL() + "/events?kind=recovered,kb-publish")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}

	type wire struct {
		ID      uint64 `json:"id"`
		Kind    string `json:"kind"`
		Replica int    `json:"replica"`
		Episode int    `json:"episode"`
		TTR     int64  `json:"ttr"`
		Label   string `json:"label"`
	}
	events := make(chan wire, 256)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev wire
			if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil {
				events <- ev
			}
		}
	}()

	// Wait for the handler to attach so nothing live is missed.
	deadline := time.Now().Add(5 * time.Second)
	for ops.Events().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := fleet.RunCampaign(context.Background(), selfheal.Campaign{Episodes: 6}); err != nil {
		t.Fatal(err)
	}

	var sawRecovered, sawPublish bool
	timeout := time.After(10 * time.Second)
	for !(sawRecovered && sawPublish) {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended early (recovered=%v publish=%v)", sawRecovered, sawPublish)
			}
			switch ev.Kind {
			case "recovered":
				if ev.Replica < 0 || ev.Replica >= fleet.Size() {
					t.Fatalf("recovered event with bad replica %d", ev.Replica)
				}
				if ev.ID == 0 {
					t.Fatal("recovered event without a stream id")
				}
				sawRecovered = true
			case "kb-publish":
				if ev.Replica != -1 || !strings.HasPrefix(ev.Label, "seq ") {
					t.Fatalf("kb-publish event %+v", ev)
				}
				sawPublish = true
			default:
				t.Fatalf("kind filter leaked %q", ev.Kind)
			}
		case <-timeout:
			t.Fatalf("timed out (recovered=%v publish=%v)", sawRecovered, sawPublish)
		}
	}
}

// TestAdminVerbsRequireToken: with an admin token configured, every verb
// is 401 without (or with a wrong) token and acts with the right one;
// reads stay open.
func TestAdminVerbsRequireToken(t *testing.T) {
	fleet, _, ops := opsFleet(t, 1, selfheal.NodeSpec{AdminToken: "s3cret"})

	for _, verb := range []string{"sync", "compact", "learning", "drain"} {
		if resp := postVerb(t, ops, verb, "", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s without token: %d, want 401", verb, resp.StatusCode)
		}
		if resp := postVerb(t, ops, verb, "wrong", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s with wrong token: %d, want 401", verb, resp.StatusCode)
		}
	}

	// The real verbs act with the right token: learning freezes, and the
	// node without peers/compaction answers 409 honestly for sync/compact.
	if resp := postVerb(t, ops, "learning", "s3cret", `{"freeze":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated learning: %d", resp.StatusCode)
	}
	if !fleet.LearningFrozen() {
		t.Fatal("verb did not freeze learning")
	}
	if resp := postVerb(t, ops, "sync", "s3cret", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("sync without peers: %d, want 409", resp.StatusCode)
	}
	if resp := postVerb(t, ops, "compact", "s3cret", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("compact without cap: %d, want 409", resp.StatusCode)
	}

	// Reads never needed the token.
	r, err := http.Get(ops.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("open read: %d", r.StatusCode)
	}
	// The denied attempts are on the metrics the operator alerts on.
	resp, err := http.Get(ops.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), `selfheal_admin_requests_total{verb="drain",code="401"}`) {
		t.Fatalf("/metrics missing denied-verb rows:\n%s", buf.String())
	}
}

// TestAdminVerbsDisabledWithoutToken: no admin token configured means
// 403 for every verb — no credential helps.
func TestAdminVerbsDisabledWithoutToken(t *testing.T) {
	_, _, ops := opsFleet(t, 1, selfheal.NodeSpec{})
	for _, verb := range []string{"sync", "compact", "learning", "drain"} {
		if resp := postVerb(t, ops, verb, "anything", ""); resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s with no admin token configured: %d, want 403", verb, resp.StatusCode)
		}
	}
}

// TestFreezeLearningStopsKBGrowth is the acceptance pin: freezing over
// the admin verb stops knowledge-base sequence growth under a running
// campaign, and thawing resumes it.
func TestFreezeLearningStopsKBGrowth(t *testing.T) {
	fleet, kb, ops := opsFleet(t, 2, selfheal.NodeSpec{AdminToken: "adm"})

	// Warm campaign: learning on, the KB must grow.
	if _, err := fleet.RunCampaign(context.Background(), selfheal.Campaign{Episodes: 6}); err != nil {
		t.Fatal(err)
	}
	grown := kb.Seq()
	if grown == 0 {
		t.Fatal("warm campaign learned nothing — test premise broken")
	}

	if resp := postVerb(t, ops, "learning", "adm", `{"freeze":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("freeze: %d", resp.StatusCode)
	}
	if _, err := fleet.RunCampaign(context.Background(), selfheal.Campaign{Episodes: 6, FaultSeed: 99}); err != nil {
		t.Fatal(err)
	}
	if got := kb.Seq(); got != grown {
		t.Fatalf("KB seq grew %d -> %d under frozen learning", grown, got)
	}

	if resp := postVerb(t, ops, "learning", "adm", `{"freeze":false}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("thaw: %d", resp.StatusCode)
	}
	if _, err := fleet.RunCampaign(context.Background(), selfheal.Campaign{Episodes: 6, FaultSeed: 100}); err != nil {
		t.Fatal(err)
	}
	if got := kb.Seq(); got <= grown {
		t.Fatalf("KB seq stuck at %d after thaw", got)
	}
}

// TestDrainStopsWork: after POST /admin/drain, campaigns start no new
// episodes, /healthz reports drained, gossip pushes are refused, and the
// audit trail records the verb.
func TestDrainStopsWork(t *testing.T) {
	fleet, _, ops := opsFleet(t, 2, selfheal.NodeSpec{AdminToken: "adm"})

	sub := ops.Events().Subscribe(selfheal.EventSubOptions{})
	defer sub.Cancel()

	if resp := postVerb(t, ops, "drain", "adm", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if !fleet.Draining() {
		t.Fatal("drain verb did not set the drain flag")
	}

	// A campaign on a drained fleet heals nothing.
	res, err := fleet.RunCampaign(context.Background(), selfheal.Campaign{Episodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Episodes != 0 {
		t.Fatalf("drained fleet healed %d episodes", res.Stats.Episodes)
	}

	r, err := http.Get(ops.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Status string `json:"status"`
	}
	json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if st.Status != "drained" {
		t.Fatalf("healthz status %q, want drained", st.Status)
	}

	pr, err := http.Post(ops.URL()+"/kb/push", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("push while drained: %d, want 503", pr.StatusCode)
	}

	// The audit event reached in-process subscribers too.
	timeout := time.After(5 * time.Second)
	for {
		select {
		case se, ok := <-sub.C():
			if !ok {
				t.Fatal("subscription closed before the audit event")
			}
			if se.Event.Kind == selfheal.EventAdmin && strings.HasPrefix(se.Event.Label, "drain:") {
				return
			}
		case <-timeout:
			t.Fatal("no drain audit event")
		}
	}
}

// TestOpsCloseReleasesParkedClients is the prompt-shutdown satellite: a
// parked /kb/delta long-poll and an open /events stream must not hold
// Ops.Close for their full waits.
func TestOpsCloseReleasesParkedClients(t *testing.T) {
	kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleet, err := selfheal.NewFleet(context.Background(), 1,
		selfheal.WithSeed(3),
		selfheal.WithSynopsis(kb))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ops, err := fleet.ServeOps(context.Background(), selfheal.NodeSpec{Serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}

	poll := make(chan error, 1)
	go func() {
		resp, err := http.Get(ops.URL() + "/kb/delta?since=0&wait=25s")
		if err != nil {
			poll <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			poll <- fmt.Errorf("parked poll answered %d, want 304", resp.StatusCode)
			return
		}
		poll <- nil
	}()
	stream := make(chan error, 1)
	go func() {
		resp, err := http.Get(ops.URL() + "/events")
		if err != nil {
			stream <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: goodbye") {
				stream <- nil
				return
			}
		}
		stream <- fmt.Errorf("stream ended without goodbye")
	}()

	// Let both park, then close: the whole shutdown must beat the 25s
	// long-poll by a wide margin.
	deadline := time.Now().Add(5 * time.Second)
	for ops.Events().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never attached")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ops.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Ops.Close took %v — parked clients held shutdown", d)
	}
	for _, ch := range []chan error{poll, stream} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("client still parked after Close returned")
		}
	}
}

// TestRateLimitedOpsPlane: NodeSpec.RateLimit turns 429s on over the
// real listener, bursting to twice the rate.
func TestRateLimitedOpsPlane(t *testing.T) {
	_, _, ops := opsFleet(t, 1, selfheal.NodeSpec{RateLimit: 1})
	codes := make(map[int]int)
	for i := 0; i < 6; i++ {
		r, err := http.Get(ops.URL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		codes[r.StatusCode]++
	}
	if codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s across 6 rapid requests: %v", codes)
	}
	if codes[http.StatusOK] < 2 {
		t.Fatalf("burst not admitted: %v", codes)
	}
}

// TestServeOpsCloseLeaksNoGoroutines: a node serving and a node pulling
// from it with gossip on, carrying a live /events subscriber and a
// parked /kb/delta long-poll, return to the goroutine count from before
// ServeOps once both Ops and both fleets are closed. It also pins that
// episodes run after ServeOps are counted on /metrics, which needs the
// replicas' event sinks re-pointed at the ops plane.
func TestServeOpsCloseLeaksNoGoroutines(t *testing.T) {
	ctx := context.Background()
	newFleet := func(seed int64) (*selfheal.Fleet, *selfheal.SharedSynopsis) {
		kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
		fleet, err := selfheal.NewFleet(ctx, 1, selfheal.WithSeed(seed), selfheal.WithSynopsis(kb))
		if err != nil {
			t.Fatal(err)
		}
		return fleet, kb
	}
	fleetA, _ := newFleet(81)
	fleetB, kbB := newFleet(82)
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()

	opsA, err := fleetA.ServeOps(ctx, selfheal.NodeSpec{Serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	opsB, err := fleetB.ServeOps(ctx, selfheal.NodeSpec{
		Serve:        "127.0.0.1:0",
		Peers:        []string{opsA.URL()},
		GossipFanout: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	events, err := client.Get(opsA.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, events.Body)
		events.Body.Close()
		close(streamDone)
	}()
	// A cursor far past any sequence parks until the wait or shutdown.
	pollDone := make(chan struct{})
	go func() {
		if resp, err := client.Get(opsA.URL() + "/kb/delta?since=1000000000&wait=25s"); err == nil {
			resp.Body.Close()
		}
		close(pollDone)
	}()

	const episodes = 3
	if _, err := fleetA.RunCampaign(ctx, selfheal.Campaign{Episodes: episodes}); err != nil {
		t.Fatal(err)
	}
	// A point learned on B reaches A by push.
	kbB.Add(selfheal.Point{
		X:       []float64{4, 1},
		Action:  synopsis.Action{Fix: catalog.FixRebootAppTier, Target: "app"},
		Success: true,
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := opsB.GossipStats()
		if st.PointsPushed > 0 && opsA.Events().Subscribers() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no push or no subscriber: gossip %+v, %d subscribers", st, opsA.Events().Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := client.Get(opsA.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("selfheal_episodes_injected_total %d\n", episodes); !strings.Contains(metrics.String(), want) {
		t.Fatalf("/metrics does not count the campaign run after ServeOps (want %q):\n%s", want, metrics.String())
	}

	for _, ops := range []*selfheal.Ops{opsB, opsA} {
		if err := ops.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fleetA.Close()
	fleetB.Close()
	<-streamDone
	<-pollDone
	client.CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before ServeOps:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
