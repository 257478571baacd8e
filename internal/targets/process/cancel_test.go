package process

import (
	"context"
	"syscall"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/synopsis"
)

// TestCancelMidEpisodeReapsChildren pins the supervisor's two
// cancellation contracts at the healing-loop level: cancelling an
// episode's context mid-flight (a) returns a truthful partial Episode —
// detection is reported, no attempt gets a made-up outcome, Err stays
// nil — and (b) leaves no zombie: after Close, the child's pid must be
// gone from the process table entirely (a zombie would still accept
// signal 0).
func TestCancelMidEpisodeReapsChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock process e2e; skipped with -short")
	}
	p, err := New(helperConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = p.Close() }()

	tun := p.HarnessTuning()
	hcfg := core.DefaultHarnessConfig()
	hcfg.WarmupTicks = tun.WarmupTicks
	hcfg.WindowTicks = tun.WindowTicks
	hcfg.DetectK = tun.DetectK
	hcfg.HistoryTicks = tun.HistoryTicks
	hcfg.SLO = p.Spec().SLO
	h := core.NewTargetHarness(p, hcfg)

	hlcfg := core.DefaultHealerConfig()
	hlcfg.CheckTicks = tun.CheckTicks
	hlcfg.AdminDelayTicks = tun.AdminDelayTicks
	hlcfg.EpisodeBudget = tun.EpisodeBudget
	hl := core.NewHealer(h, core.NewFixSym(synopsis.NewNearestNeighbor()), hlcfg)
	hl.AdminOracle = p.CorrectFix

	// Cancel the episode the instant detection fires, so cancellation
	// lands mid-episode: inside the attempt/escalate loop, never after
	// recovery.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hl.Sink = core.EventFunc(func(ev core.Event) {
		if ev.Kind == core.EventDetected {
			cancel()
		}
	})

	f, err := newFault(catalog.FaultDeadlock, p.cfg.Component)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.Pid()
	if pid == 0 {
		t.Fatal("no live child")
	}

	type result struct{ ep core.Episode }
	done := make(chan result, 1)
	go func() { done <- result{hl.RunEpisode(ctx, f)} }()

	var ep core.Episode
	select {
	case r := <-done:
		ep = r.ep
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled episode did not return")
	}

	// Truthful partial episode: injection and detection happened and are
	// reported; recovery did not and is not; no attempt was given an
	// invented outcome after the cancel; Err is reserved for refused
	// injections and stays nil.
	if ep.Err != nil {
		t.Fatalf("cancelled episode reports Err=%v", ep.Err)
	}
	if !ep.Detected {
		t.Fatal("episode cancelled at detection does not report Detected")
	}
	if ep.Recovered {
		t.Fatal("cancelled episode claims recovery")
	}
	for _, a := range ep.Attempts {
		if a.Success {
			t.Fatalf("cancelled episode recorded a successful attempt: %+v", a)
		}
	}

	// No zombies: Close must reap whatever child exists — including the
	// still-frozen one the cancelled episode abandoned.
	livePid := p.Pid()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, check := range []int{pid, livePid} {
		if check == 0 {
			continue
		}
		if err := syscall.Kill(check, 0); err != syscall.ESRCH {
			t.Fatalf("pid %d still in the process table after Close (err=%v) — zombie or leaked child", check, err)
		}
	}
}
