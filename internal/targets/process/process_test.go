package process

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/targets"
)

// TestHelperProcess is not a test: it is the child the supervisor
// tests spawn, re-exec'ing the test binary itself (so no prebuilt
// helper binary is needed). It serves a crashyd-alike HTTP service,
// reading its JSON config on every request.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("SELFHEAL_HELPER_PROCESS") != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	var addr, configPath, mode string
	for i := 0; i+1 < len(args); i++ {
		switch args[i] {
		case "-addr":
			addr = args[i+1]
		case "-config":
			configPath = args[i+1]
		case "-mode":
			mode = args[i+1]
		}
	}
	if mode == "sleep" {
		time.Sleep(time.Hour)
		os.Exit(0)
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	go func() {
		<-term
		os.Exit(0)
	}()
	http.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if configPath != "" {
			raw, err := os.ReadFile(configPath)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			var c struct {
				LatencyMS float64 `json:"latency_ms"`
				FailRate  float64 `json:"fail_rate"`
			}
			if err := json.Unmarshal(raw, &c); err != nil {
				http.Error(w, "bad config", http.StatusInternalServerError)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "requests_total 1")
	})
	if err := http.ListenAndServe(addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperCommand returns a Config.Command that re-execs this test
// binary as the helper child.
func helperCommand(extra ...string) []string {
	return append([]string{os.Args[0], "-test.run=TestHelperProcess$", "--"}, extra...)
}

func helperConfig() Config {
	return Config{
		Command:      helperCommand(),
		Env:          []string{"SELFHEAL_HELPER_PROCESS=1"},
		TickPeriod:   10 * time.Millisecond,
		ProbeTimeout: 150 * time.Millisecond,
		Grace:        150 * time.Millisecond,
		Backoff:      Backoff{Initial: 10 * time.Millisecond, Factor: 2, Max: 80 * time.Millisecond, ResetAfter: time.Hour},
		Seed:         7,
	}
}

func newHelperProc(t *testing.T) *Proc {
	t.Helper()
	// These are true wall-clock e2e tests: a real re-exec'd child, real
	// signals, probes pacing on real time. -short keeps the fast
	// edit-compile-test loop on the simulated targets.
	if testing.Short() {
		t.Skip("wall-clock process e2e; skipped with -short")
	}
	p, err := New(helperConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// waitHealthyTick ticks until a healthy sample or the deadline, and
// returns whether health returned.
func waitHealthyTick(p *Proc, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		s := p.Tick()
		if s.Errors == 0 && !s.Down && p.vals[mUp] == 1 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func TestSuperviseHealthy(t *testing.T) {
	p := newHelperProc(t)
	if p.Pid() == 0 {
		t.Fatal("no live child after New")
	}
	s := p.Tick()
	if s.Down || s.Errors != 0 {
		t.Fatalf("healthy child produced sample %+v", s)
	}
	if p.vals[mUp] != 1 || p.vals[mAlive] != 1 {
		t.Fatalf("healthy child metrics up=%v alive=%v", p.vals[mUp], p.vals[mAlive])
	}
	names := p.MetricNames()
	if len(names) != numBuiltinMetrics || names[mUp] != "proc.svc.up" {
		t.Fatalf("metric names: %v", names)
	}
}

func TestKillDetectFailover(t *testing.T) {
	p := newHelperProc(t)
	f, err := newFault(catalog.FaultHardware, p.cfg.Component)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inject(f); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	s := p.Tick()
	if !s.Down || s.Errors != 1 || p.vals[mRefused] != 1 {
		t.Fatalf("killed child not observed as down: sample %+v refused=%v", s, p.vals[mRefused])
	}
	act, ok := p.CorrectFix()
	if !ok || act.Fix != catalog.FixFailoverNode {
		t.Fatalf("CorrectFix = %+v, %v; want failover-node", act, ok)
	}
	if _, err := p.Apply(act); err != nil {
		t.Fatalf("Apply(%v): %v", act.Fix, err)
	}
	if !waitHealthyTick(p, 3*time.Second) {
		t.Fatal("child not healthy after failover respawn")
	}
	p.Reap()
	if len(p.Active()) != 0 {
		t.Fatalf("fault survived Reap after recovery: %d active", len(p.Active()))
	}
	if p.child.restartCount() == 0 {
		t.Fatal("failover did not count a restart")
	}
}

func TestPauseThaw(t *testing.T) {
	p := newHelperProc(t)
	f, err := newFault(catalog.FaultDeadlock, p.cfg.Component)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inject(f); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	s := p.Tick()
	if s.Errors != 1 || p.vals[mTimeout] != 1 || p.vals[mPaused] != 1 {
		t.Fatalf("frozen child not observed: sample %+v timeout=%v paused=%v",
			s, p.vals[mTimeout], p.vals[mPaused])
	}
	if _, err := p.Apply(targets.Action{Fix: catalog.FixMicrorebootEJB, Target: p.cfg.Component}); err != nil {
		t.Fatalf("thaw: %v", err)
	}
	if !waitHealthyTick(p, 3*time.Second) {
		t.Fatal("child not healthy after thaw")
	}
	if p.vals[mPaused] != 0 {
		t.Fatal("child still reads paused after thaw")
	}
	p.Reap()
	if len(p.Active()) != 0 {
		t.Fatal("deadlock fault survived Reap after thaw")
	}
}

// TestReinjectDedups: a fault injected twice — a flapping fault's next
// on-phase — is one entry in the active set, and one ClearFault
// withdraws it.
func TestReinjectDedups(t *testing.T) {
	p := newHelperProc(t)
	f, err := newFault(catalog.FaultOperatorConfig, p.cfg.Component)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := p.Inject(f); err != nil {
			t.Fatalf("Inject: %v", err)
		}
	}
	if n := len(p.Active()); n != 1 {
		t.Fatalf("one fault injected twice left %d active entries", n)
	}
	if err := p.ClearFault(f); err != nil {
		t.Fatalf("ClearFault: %v", err)
	}
	if n := len(p.Active()); n != 0 || !p.configGood() {
		t.Fatalf("after ClearFault: %d active entries, config good %v", n, p.configGood())
	}
}

func TestConfigCorruptionRollback(t *testing.T) {
	p := newHelperProc(t)
	f, err := newFault(catalog.FaultOperatorConfig, p.cfg.Component)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inject(f); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	s := p.Tick()
	if s.Errors != 1 || p.vals[m5xx] != 1 || p.vals[mConfigDrift] != 1 {
		t.Fatalf("corrupt config not observed: sample %+v 5xx=%v drift=%v",
			s, p.vals[m5xx], p.vals[mConfigDrift])
	}
	if p.vals[mAlive] != 1 {
		t.Fatal("config corruption should not kill the child")
	}
	if _, err := p.Apply(targets.Action{Fix: catalog.FixRestoreConfig}); err != nil {
		t.Fatalf("restore config: %v", err)
	}
	if !waitHealthyTick(p, 3*time.Second) {
		t.Fatal("child not healthy after config rollback")
	}
	if p.vals[mConfigDrift] != 0 {
		t.Fatal("config still reads drifted after rollback")
	}
}

func TestFullRestartResetsBackoffAndConfig(t *testing.T) {
	p := newHelperProc(t)
	// Corrupt config AND climb the backoff ladder.
	if err := os.WriteFile(p.cfg.ConfigPath, p.cfg.CorruptConfig, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = p.child.respawn()
	_ = p.child.respawn()
	if p.child.delay == 0 {
		t.Fatal("ladder did not climb")
	}
	if _, err := p.Apply(targets.Action{Fix: catalog.FixFullRestart}); err != nil {
		t.Fatalf("full restart: %v", err)
	}
	if !p.configGood() {
		t.Fatal("full restart did not restore config")
	}
	if !waitHealthyTick(p, 3*time.Second) {
		t.Fatal("child not healthy after full restart")
	}
}

func TestApplyRejectsNonsense(t *testing.T) {
	p := newHelperProc(t)
	if _, err := p.Apply(targets.Action{Fix: catalog.FixRebootAppTier, Target: "not-a-component"}); err == nil {
		t.Fatal("Apply accepted an unknown component")
	}
	if _, err := p.Apply(targets.Action{Fix: catalog.FixKillHungQuery}); err == nil {
		t.Fatal("Apply accepted a fix outside the repertoire")
	}
	if _, err := p.Apply(targets.Action{Fix: catalog.FixNotifyAdmin}); err != nil {
		t.Fatalf("NotifyAdmin must be an accepted no-op (escalation path): %v", err)
	}
}

func TestNewFaultsValidatesKinds(t *testing.T) {
	p := newHelperProc(t)
	if _, err := p.NewFaults(1, catalog.FaultAging); err == nil {
		t.Fatal("NewFaults accepted a kind outside the catalog")
	}
	g, err := p.NewFaults(1)
	if err != nil {
		t.Fatalf("NewFaults: %v", err)
	}
	drawn := map[catalog.FaultKind]bool{}
	for i := 0; i < 60; i++ {
		k := g.Next().Kind()
		if !p.spec.HasKind(k) {
			t.Fatalf("generator drew %s, outside the catalog", k)
		}
		drawn[k] = true
	}
	for _, k := range p.spec.FaultKinds {
		if !drawn[k] {
			t.Errorf("default generator never drew %s in 60 draws", k)
		}
	}
}

func TestBackoffLadder(t *testing.T) {
	policy := Backoff{Initial: 10 * time.Millisecond, Factor: 2, Max: 35 * time.Millisecond, ResetAfter: time.Hour}
	m := newManaged(helperCommand("-mode", "sleep"), []string{"SELFHEAL_HELPER_PROCESS=1"}, "", 50*time.Millisecond, policy)
	if err := m.start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer m.close()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	for i, w := range want {
		if err := m.respawn(); err != nil {
			t.Fatalf("respawn %d: %v", i, err)
		}
		if m.delay != w {
			t.Fatalf("after respawn %d ladder at %v, want %v", i+1, m.delay, w)
		}
	}
	m.resetBackoff()
	if m.delay != 0 {
		t.Fatal("resetBackoff left the ladder climbed")
	}
	if m.restartCount() != len(want) {
		t.Fatalf("restartCount = %d, want %d", m.restartCount(), len(want))
	}
}

// TestCloseLeavesNoChild pins the no-zombie contract: after Close the
// child is fully reaped — signalling its old pid errors with ESRCH
// (a zombie would still accept signal 0).
func TestCloseLeavesNoChild(t *testing.T) {
	p, err := New(helperConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pid := p.Pid()
	if pid == 0 {
		t.Fatal("no live child")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Fatalf("child pid %d still signallable after Close (err=%v) — zombie or leak", pid, err)
	}
	if _, err := os.Stat(p.cfg.ConfigPath); !os.IsNotExist(err) {
		t.Fatalf("temp config not removed on Close: %v", err)
	}
}
