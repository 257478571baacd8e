package scenario

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"selfheal/internal/core"
	"selfheal/internal/diagnose"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
)

// newHealer builds a target+harness+healer stack for scenario tests.
func newHealer(t *testing.T, kind string, seed int64, approach core.Approach, sink core.EventSink) *core.Healer {
	t.Helper()
	var tg targets.Target
	var err error
	switch kind {
	case targets.ReplicatedName:
		tg, err = targets.NewReplicated(targets.Config{Seed: seed})
	case targets.AuctionName:
		tg, err = targets.NewAuction(targets.Config{Seed: seed})
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return healerFor(tg, seed, approach, sink)
}

// healerFor builds the harness+healer stack around an existing target.
func healerFor(tg targets.Target, seed int64, approach core.Approach, sink core.EventSink) *core.Healer {
	hcfg := core.DefaultHarnessConfig()
	hcfg.Seed = seed
	hcfg.SLO = tg.Spec().SLO
	h := core.NewTargetHarness(tg, hcfg)
	hl := core.NewHealer(h, approach, core.DefaultHealerConfig())
	hl.AdminOracle = tg.CorrectFix
	hl.Sink = sink
	return hl
}

func nnApproach() core.Approach { return core.NewFixSym(synopsis.NewNearestNeighbor()) }

// recordSink formats every event deterministically.
type recordSink struct{ lines []string }

func (r *recordSink) Emit(ev core.Event) {
	fault := ""
	if ev.Fault != nil {
		fault = fmt.Sprintf(" fault=%v/%s", ev.Fault.Kind(), ev.Fault.Target())
	}
	r.lines = append(r.lines, fmt.Sprintf("%s t=%d ep=%d label=%q sev=%g att=%d ok=%v act=%v ttr=%d%s",
		ev.Kind, ev.Tick, ev.Episode, ev.Label, ev.Severity, ev.Attempt, ev.Success, ev.Action, ev.TTR, fault))
}

func TestRunnerCapabilityValidation(t *testing.T) {
	// Grey severity on the auction target: no PartialInjector.
	grey := New("g").Horizon(500).
		At(10, "a", FaultSpec{Kind: "aging", Severity: 0.3}).MustBuild()
	hl := newHealer(t, targets.AuctionName, 1, nnApproach(), nil)
	if _, err := NewRunner(grey, hl); err == nil {
		t.Fatal("grey scenario accepted on a target without PartialInjector")
	}
	// Every target clears faults, so a flapping scenario runs on auction.
	flap := New("f").Horizon(500).
		Flapping(10, "a", FaultSpec{Kind: "aging"}, 50, 50, 2).MustBuild()
	r, err := NewRunner(flap, newHealer(t, targets.AuctionName, 1, nnApproach(), nil))
	if err != nil {
		t.Fatalf("flapping scenario refused on auction: %v", err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("flapping auction run: %v", err)
	}
	if st.Injections != 2 || st.Clears != 2 {
		t.Fatalf("flapping auction run: %d injections, %d clears, want 2 and 2", st.Injections, st.Clears)
	}
	// Kind outside the target's catalog.
	off := New("o").Horizon(500).
		At(10, "a", FaultSpec{Kind: "stale-statistics"}).MustBuild()
	if _, err := NewRunner(off, newHealer(t, targets.ReplicatedName, 1, nnApproach(), nil)); err == nil {
		t.Fatal("off-catalog kind accepted")
	}
	// Target pin mismatch.
	pinned := New("p").For("replicated").Horizon(500).
		At(10, "a", FaultSpec{Kind: "aging"}).MustBuild()
	if _, err := NewRunner(pinned, newHealer(t, targets.AuctionName, 1, nnApproach(), nil)); err == nil {
		t.Fatal("replicated-pinned scenario accepted on auction")
	}
	// Bad component fails at NewRunner, not mid-run.
	badComp := New("b").Horizon(500).
		At(10, "a", FaultSpec{Kind: "aging", Component: "app-9"}).MustBuild()
	if _, err := NewRunner(badComp, newHealer(t, targets.ReplicatedName, 1, nnApproach(), nil)); err == nil {
		t.Fatal("bad component accepted")
	}
}

func TestTriggerSemantics(t *testing.T) {
	// A benign scenario (tiny magnitudes: nothing becomes SLO-visible)
	// exercising At, Cascade, Every+Count, While and Flap schedules; the
	// recorded event stream pins the firing ticks.
	sc := New("triggers").For("replicated").Horizon(800).
		At(100, "anchor", FaultSpec{Kind: "unhandled-exception", Component: "app-0", Magnitude: 0.001}).
		Cascade("anchor", 50, "chained", FaultSpec{Kind: "unhandled-exception", Component: "app-1", Magnitude: 0.001}).
		Every(200, 100, 3, "periodic", FaultSpec{Kind: "operator-misconfiguration", Magnitude: 0.501}).
		Flapping(300, "flappy", FaultSpec{Kind: "aging", Component: "app-1", Magnitude: 0.00001}, 60, 40, 2).
		MustBuild()
	sink := &recordSink{}
	hl := newHealer(t, targets.ReplicatedName, 7, nnApproach(), sink)
	r, err := NewRunner(sc, hl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Detections != 0 {
		t.Fatalf("benign scenario detected %d failures:\n%v", st.Detections, sink.lines)
	}
	// Scenario ticks are relative to run start (warmup = 240).
	base := int64(240)
	type firing struct {
		kind  core.EventKind
		label string
		tick  int64
	}
	want := []firing{
		{core.EventScenarioInject, "anchor", base + 100},
		{core.EventScenarioInject, "chained", base + 150},
		{core.EventScenarioInject, "periodic", base + 200},
		{core.EventScenarioInject, "periodic", base + 300},
		{core.EventScenarioInject, "flappy", base + 300},
		{core.EventScenarioClear, "flappy", base + 360},
		{core.EventScenarioInject, "periodic", base + 400},
		{core.EventScenarioInject, "flappy", base + 400},
		{core.EventScenarioClear, "flappy", base + 460},
	}
	var got []firing
	for _, l := range sink.lines {
		var f firing
		var sev float64
		n, _ := fmt.Sscanf(l, "%s t=%d ep=0 label=%q sev=%g", &f.kind, &f.tick, &f.label, &sev)
		if n >= 3 {
			got = append(got, f)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firings:\n got %v\nwant %v", got, want)
	}
	if st.Injections != 7 || st.Clears != 2 {
		t.Fatalf("injections=%d clears=%d, want 7/2", st.Injections, st.Clears)
	}
}

func TestWhileGatesFiring(t *testing.T) {
	// "gated" repeats every 100 ticks but only fires while the flapping
	// gate's scripted effect is on (on 100, off 100 from tick 100):
	// firings at 150 (on), 350 (on), ... and skipped at 250, 450.
	sc := New("while").For("replicated").Horizon(700).
		Flapping(100, "gate", FaultSpec{Kind: "aging", Component: "app-0", Magnitude: 0.00001}, 100, 100, 0).
		Every(150, 100, 0, "gated", FaultSpec{Kind: "unhandled-exception", Component: "app-1", Magnitude: 0.001}).
		While("gate").
		MustBuild()
	sink := &recordSink{}
	hl := newHealer(t, targets.ReplicatedName, 7, nnApproach(), sink)
	r, err := NewRunner(sc, hl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var gatedTicks []int64
	for _, l := range sink.lines {
		var kind core.EventKind
		var tick int64
		var label string
		if n, _ := fmt.Sscanf(l, "%s t=%d ep=0 label=%q", &kind, &tick, &label); n >= 3 &&
			kind == core.EventScenarioInject && label == "gated" {
			gatedTicks = append(gatedTicks, tick-240)
		}
	}
	want := []int64{150, 350, 550}
	if !reflect.DeepEqual(gatedTicks, want) {
		t.Fatalf("gated firings at %v, want %v", gatedTicks, want)
	}
	if st.Injections <= len(want) {
		t.Fatalf("expected gate injections too, got %d total", st.Injections)
	}
}

// runOnce executes sc on a fresh system and returns the formatted event
// stream and stats.
func runOnce(t *testing.T, sc *Scenario, kind string, seed int64) ([]string, string) {
	t.Helper()
	sink := &recordSink{}
	hl := newHealer(t, kind, seed, nnApproach(), sink)
	r, err := NewRunner(sc, hl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sink.lines, st.Format()
}

func TestScenarioDeterminism(t *testing.T) {
	// Same seed + same scenario ⇒ byte-identical event stream and stats,
	// on both built-in targets (satellite: determinism under -race).
	cases := []struct {
		kind string
		sc   *Scenario
	}{
		{targets.ReplicatedName, mustByName(t, "cascade-db-replica")},
		{targets.ReplicatedName, mustByName(t, "flapping-leak")},
		{targets.AuctionName, mustByName(t, "flash-crowd")},
	}
	for _, c := range cases {
		lines1, stats1 := runOnce(t, c.sc, c.kind, 42)
		lines2, stats2 := runOnce(t, c.sc, c.kind, 42)
		if !reflect.DeepEqual(lines1, lines2) {
			t.Fatalf("%s on %s: event streams differ across identical runs", c.sc.Name, c.kind)
		}
		if stats1 != stats2 {
			t.Fatalf("%s on %s: stats differ:\n%s\nvs\n%s", c.sc.Name, c.kind, stats1, stats2)
		}
		if len(lines1) == 0 {
			t.Fatalf("%s on %s: no events emitted", c.sc.Name, c.kind)
		}
	}
}

func mustByName(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestLibraryProducesDetections(t *testing.T) {
	// Every shipped scenario must make the monitor declare at least one
	// failure — the smoke criterion CI asserts through selfheald too.
	for _, sc := range Library() {
		hl := newHealer(t, sc.Target, 42, nnApproach(), nil)
		r, err := NewRunner(sc, hl)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		st, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if st.Detections == 0 {
			t.Errorf("%s: no detections over %d ticks", sc.Name, sc.Horizon)
		}
	}
}

func TestCascadeBreaksALearner(t *testing.T) {
	// The acceptance pin: the shipped cascade yields recovered-% strictly
	// below 100 for the nearest-neighbor learner — the regime where
	// symptom-based diagnosis actually breaks, which single-fault
	// campaigns never reach.
	sc := mustByName(t, "cascade-db-replica")
	hl := newHealer(t, sc.Target, 42, nnApproach(), nil)
	r, err := NewRunner(sc, hl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Detections == 0 {
		t.Fatal("cascade produced no detections")
	}
	if pct := st.RecoveredPct(); pct >= 100 {
		t.Fatalf("cascade recovered %.1f%%, expected strictly below 100", pct)
	}
}

func TestGreyStaysUndetectedUntilTip(t *testing.T) {
	// The grey phase alone must not trip the monitor: run grey-degrade
	// cut down to just its sub-threshold event and assert zero
	// detections; the full library scenario (with the tip-over) detects.
	greyOnly := New("grey-only").For("replicated").Horizon(1000).
		At(60, "grey-deploy", FaultSpec{Kind: "unhandled-exception", Component: "app-0", Magnitude: 0.25, Severity: 0.12}).
		MustBuild()
	hl := newHealer(t, targets.ReplicatedName, 42, nnApproach(), nil)
	r, err := NewRunner(greyOnly, hl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Detections != 0 {
		t.Fatalf("grey phase tripped the monitor: %d detections", st.Detections)
	}
	if st.GreyInjections != 1 {
		t.Fatalf("grey injections = %d, want 1", st.GreyInjections)
	}

	full := mustByName(t, "grey-degrade")
	hl = newHealer(t, targets.ReplicatedName, 42, nnApproach(), nil)
	r, err = NewRunner(full, hl)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Detections == 0 {
		t.Fatal("tip-over never detected")
	}
}

func TestHybridApproachRunsScenarios(t *testing.T) {
	// The diagnosis-based approaches drive the same runner unmodified.
	hy := core.NewHybrid(core.NewFixSym(synopsis.NewNearestNeighbor()), diagnose.NewBottleneck(), diagnose.NewAnomaly())
	sc := mustByName(t, "flapping-leak")
	hl := newHealer(t, sc.Target, 11, hy, nil)
	r, err := NewRunner(sc, hl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}
