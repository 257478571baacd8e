package main

import (
	"context"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"selfheal"
)

// topFleet boots one serving fleet node for top to watch.
func topFleet(t *testing.T, seed int64) (*selfheal.Fleet, *selfheal.Ops) {
	t.Helper()
	kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	fleet, err := selfheal.NewFleet(context.Background(), 1,
		selfheal.WithSeed(seed),
		selfheal.WithSynopsis(kb))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	ops, err := fleet.ServeOps(context.Background(), selfheal.NodeSpec{Serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ops.Close(ctx)
	})
	return fleet, ops
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	if err := <-errCh; err != nil {
		w.Close()
		r.Close()
		t.Fatal(err)
	}
	w.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	r.Close()
	return b.String()
}

// TestTopOnceThreeNodeFleet is the acceptance pin: kbtool top renders
// one snapshot frame against a 3-node fleet in non-TTY mode, with one
// row per node carrying its scraped knowledge and episode numbers.
func TestTopOnceThreeNodeFleet(t *testing.T) {
	fleetA, opsA := topFleet(t, 21)
	_, opsB := topFleet(t, 22)
	_, opsC := topFleet(t, 23)

	// Give node A some history so the frame carries real numbers.
	if _, err := fleetA.RunCampaign(context.Background(), selfheal.Campaign{Episodes: 4}); err != nil {
		t.Fatal(err)
	}
	if fleetA.KnowledgeSeq() == 0 {
		t.Fatal("campaign learned nothing — test premise broken")
	}

	out := captureStdout(t, func() error {
		return cmdTop([]string{"-once", opsA.URL(), opsB.URL(), opsC.URL()})
	})

	if strings.Contains(out, "\x1b[2J") {
		t.Fatal("-once frame used terminal clear sequences")
	}
	if !strings.Contains(out, "fleet top — 3 node(s)") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, col := range []string{"NODE", "STATUS", "EPS/S", "RECOV%", "KB SEQ", "LAG"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %q:\n%s", col, out)
		}
	}
	for _, ops := range []*selfheal.Ops{opsA, opsB, opsC} {
		if !strings.Contains(out, ops.Addr()) {
			t.Fatalf("missing node row for %s:\n%s", ops.Addr(), out)
		}
	}
	// Three healthy rows; node A shows its KB sequence, B and C lag it.
	if got := strings.Count(out, " ok "); got < 3 {
		t.Fatalf("want 3 ok rows, found %d:\n%s", got, out)
	}
}

// TestTopDownNode: an unreachable node renders as down without failing
// the whole frame.
func TestTopDownNode(t *testing.T) {
	_, ops := topFleet(t, 31)
	out := captureStdout(t, func() error {
		return cmdTop([]string{"-once", ops.URL(), "http://127.0.0.1:1"})
	})
	if !strings.Contains(out, "down") {
		t.Fatalf("dead node not marked down:\n%s", out)
	}
	if !strings.Contains(out, ops.Addr()) {
		t.Fatalf("live node row missing:\n%s", out)
	}
}

// TestTopEventTail: the SSE tail goroutine feeds rendered frames — an
// admin event emitted on the node appears in the tail of a later frame.
func TestTopEventTail(t *testing.T) {
	_, ops := topFleet(t, 41)
	tv := &topView{
		client:  &http.Client{Timeout: 5 * time.Second},
		streams: &http.Client{},
		max:     8,
	}
	tv.nodes = append(tv.nodes, &topNode{url: ops.URL()})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tv.tailNode(ctx, tv.nodes[0])

	deadline := time.Now().Add(5 * time.Second)
	for ops.Events().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tail never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	ops.Events().Emit(selfheal.Event{Kind: selfheal.EventRecovered, Replica: 0, Episode: 3, TTR: 17})

	deadline = time.Now().Add(5 * time.Second)
	for {
		tv.mu.Lock()
		n := len(tv.tail)
		tv.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("event never reached the tail")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var sb strings.Builder
	tv.scrape(ctx)
	tv.render(&sb, false)
	out := sb.String()
	if !strings.Contains(out, "recent events:") || !strings.Contains(out, "recovered in 17s") {
		t.Fatalf("tail missing from frame:\n%s", out)
	}
}

// TestFormatTailEvent pins the tail grammar for the kinds top renders.
func TestFormatTailEvent(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{formatTailEvent("fault-injected", 1, "", 2, "deadlock", "", false, 0, ""), "r01 ep002 fault deadlock"},
		{formatTailEvent("recovered", 3, "", 7, "", "", true, 42, ""), "r03 ep007 recovered in 42s"},
		{formatTailEvent("attempt-applied", 0, "", 1, "", "restart db", true, 0, ""), "r00 ep001 ✓ restart db"},
		{formatTailEvent("admin", -1, "", 0, "", "", false, 0, "drain: draining, 0 episodes in flight"), "admin drain: draining, 0 episodes in flight"},
		{formatTailEvent("kb-publish", -1, "", 0, "", "", false, 0, "seq 9"), "kb publish seq 9"},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: %q, want %q", i, c.got, c.want)
		}
	}
}
