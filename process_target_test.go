package selfheal_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"selfheal"
)

// TestProcessHelperChild is not a test: it is the HTTP child the
// facade-level process-target tests supervise, re-exec'd from this test
// binary so no prebuilt crashyd is needed.
func TestProcessHelperChild(t *testing.T) {
	if os.Getenv("SELFHEAL_FACADE_HELPER") != "1" {
		return
	}
	var addr, configPath string
	args := os.Args
	for i := 0; i+1 < len(args); i++ {
		switch args[i] {
		case "-addr":
			addr = args[i+1]
		case "-config":
			configPath = args[i+1]
		}
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	go func() {
		<-term
		os.Exit(0)
	}()
	http.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if configPath != "" {
			if raw, err := os.ReadFile(configPath); err != nil || !strings.HasPrefix(strings.TrimSpace(string(raw)), "{") ||
				!strings.HasSuffix(strings.TrimSpace(string(raw)), "}") {
				http.Error(w, "bad config", http.StatusInternalServerError)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	if err := http.ListenAndServe(addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func newFacadeProcessTarget(t *testing.T) selfheal.Target {
	t.Helper()
	// Spawns a real re-exec'd child supervised on wall-clock probes.
	if testing.Short() {
		t.Skip("wall-clock process e2e; skipped with -short")
	}
	target, err := selfheal.NewProcessTarget(selfheal.ProcessConfig{
		Command:      []string{os.Args[0], "-test.run=TestProcessHelperChild$", "--"},
		Env:          []string{"SELFHEAL_FACADE_HELPER=1"},
		TickPeriod:   10 * time.Millisecond,
		ProbeTimeout: 150 * time.Millisecond,
		Grace:        150 * time.Millisecond,
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("NewProcessTarget: %v", err)
	}
	// Close is idempotent, so this stays safe when the test also closes
	// through System.Close.
	t.Cleanup(func() {
		if c, ok := target.(io.Closer); ok {
			_ = c.Close()
		}
	})
	return target
}

// TestProcessTargetHealsThroughFacade drives the whole stack — facade,
// wall-clock harness with Tuner cadence, Figure 3 loop — against a real
// supervised child: a real SIGKILL is detected from failed probes and
// healed by a real respawn.
func TestProcessTargetHealsThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock process e2e; skipped with -short")
	}
	ctx := context.Background()
	sys, err := selfheal.New(ctx,
		selfheal.WithTargetInstance(newFacadeProcessTarget(t)),
		selfheal.WithApproach(selfheal.ApproachFixSymNN),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()

	// The facade must have adopted the target's Tuner cadence, not the
	// simulator-scale defaults (240-tick warmups).
	if sys.Harness.Cfg.WarmupTicks != 24 || sys.Harness.Cfg.WindowTicks != 6 {
		t.Fatalf("tuner cadence not applied: warmup=%d window=%d",
			sys.Harness.Cfg.WarmupTicks, sys.Harness.Cfg.WindowTicks)
	}

	kind, err := selfheal.ParseFaultKind("hardware-degradation")
	if err != nil {
		t.Fatalf("ParseFaultKind: %v", err)
	}
	gen, err := sys.NewFaults(3, kind)
	if err != nil {
		t.Fatalf("NewFaults: %v", err)
	}
	ep := sys.HealEpisode(ctx, gen.Next())
	if !ep.Detected {
		t.Fatal("real crash not detected")
	}
	if !ep.Recovered {
		t.Fatalf("real crash not healed: %+v", ep)
	}
}

// TestProcessTargetHealsThroughDiagnosis: anomaly analysis reads the
// process target's own diagnosis rules (the child's alive gauge fell:
// fail it over), and path analysis the failed probes of the detection
// window (restart the component on them), so a real crash is healed by a
// diagnosed fix, not by escalating to the administrator.
func TestProcessTargetHealsThroughDiagnosis(t *testing.T) {
	for _, approach := range []selfheal.ApproachKind{selfheal.ApproachAnomaly, selfheal.ApproachPathAnalysis} {
		t.Run(string(approach), func(t *testing.T) {
			ctx := context.Background()
			sys, err := selfheal.New(ctx,
				selfheal.WithTargetInstance(newFacadeProcessTarget(t)),
				selfheal.WithApproach(approach),
			)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer sys.Close()
			kind, err := selfheal.ParseFaultKind("hardware-degradation")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := sys.NewFaults(3, kind)
			if err != nil {
				t.Fatal(err)
			}
			ep := sys.HealEpisode(ctx, gen.Next())
			if !ep.Detected || !ep.Recovered || ep.Escalated || len(ep.Attempts) == 0 {
				t.Fatalf("crash not healed by diagnosis: detected %v, recovered %v, escalated %v, %d attempts",
					ep.Detected, ep.Recovered, ep.Escalated, len(ep.Attempts))
			}
		})
	}
}

// TestFleetRejectsTargetInstance pins that one mutable target cannot be
// shared across fleet replicas.
func TestFleetRejectsTargetInstance(t *testing.T) {
	_, err := selfheal.NewFleet(context.Background(), 2,
		selfheal.WithTargetInstance(newFacadeProcessTarget(t)))
	if err == nil || !strings.Contains(err.Error(), "WithTargetInstance") {
		t.Fatalf("fleet accepted a target instance: %v", err)
	}
}

// TestProcessFactoryNeedsCommand pins the registry factory's guidance
// when no child command is configured: the error names the env var and
// the crashyd fallback.
func TestProcessFactoryNeedsCommand(t *testing.T) {
	t.Setenv(selfheal.ProcessCommandEnv, "")
	t.Setenv("PATH", t.TempDir()) // guarantee no crashyd on PATH
	_, err := selfheal.NewTarget(selfheal.TargetProcess, selfheal.TargetConfig{Seed: 1})
	if err == nil {
		t.Fatal("process factory built a target with no command")
	}
	for _, want := range []string{selfheal.ProcessCommandEnv, "crashyd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("factory error %q does not mention %q", err, want)
		}
	}
}
