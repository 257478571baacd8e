package core_test

import (
	"testing"

	"selfheal/internal/clock"
	"selfheal/internal/core"
)

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
