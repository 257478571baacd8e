package core_test

import (
	"context"
	"reflect"
	"testing"

	"selfheal/internal/clock"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// TestLogicalClockByteIdentical pins the Clock refactor's compatibility
// contract: a simulator campaign run under the default (nil → logical)
// clock and one run with an explicitly-set logical clock produce
// byte-identical episode records — the Clock seam costs simulator
// targets nothing, in behavior or in draws.
func TestLogicalClockByteIdentical(t *testing.T) {
	run := func(ck clock.Clock) []core.Episode {
		cfg := core.DefaultHarnessConfig()
		cfg.Clock = ck
		h := core.NewHarness(cfg)
		hl := core.NewHealer(h, core.NewFixSym(synopsis.NewNearestNeighbor()), core.DefaultHealerConfig())
		hl.AdminOracle = h.Target.CorrectFix
		gen := faults.NewGenerator(11)
		var eps []core.Episode
		for i := 0; i < 4; i++ {
			eps = append(eps, hl.RunEpisode(context.Background(), gen.Next()))
			h.StepN(120)
		}
		return eps
	}

	defaulted := run(nil)
	explicit := run(clock.Logical{})
	if !reflect.DeepEqual(defaulted, explicit) {
		t.Fatalf("logical-clock campaign diverged from default:\n default: %+v\n explicit: %+v", defaulted, explicit)
	}
}

// TestHarnessAdoptsLogicalByDefault pins that a target without a clock
// of its own runs under clock.Logical, not a wall clock.
func TestHarnessAdoptsLogicalByDefault(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	if _, ok := h.Clock.(clock.Logical); !ok {
		t.Fatalf("default harness clock is %T, want clock.Logical", h.Clock)
	}
	if h.Clock.TickPeriod() != 0 {
		t.Fatalf("logical tick period %v", h.Clock.TickPeriod())
	}
}
