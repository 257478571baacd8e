package targets

import (
	"slices"
	"testing"
)

// TestLocatorCandidatesAreApplicable: every target a locator can name is
// one its own target's Apply accepts for that fix, and every metric that
// speaks for it is one the target reports — a name it lacks would be
// dropped silently when a harness resolves the locator.
func TestLocatorCandidatesAreApplicable(t *testing.T) {
	auction, err := NewAuction(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range []Target{auction, newRepl(t, 1)} {
		spec := tg.Spec()
		if len(spec.Locators) == 0 {
			t.Errorf("%s declares no locators", spec.Name)
		}
		var names []string
		for _, src := range tg.Sources() {
			names = append(names, src.MetricNames()...)
		}
		for fix, l := range spec.Locators {
			if len(l.Candidates) < 2 {
				t.Errorf("%s: %v locator has %d candidates, nothing to choose between", spec.Name, fix, len(l.Candidates))
			}
			for _, c := range l.Candidates {
				a := Action{Fix: fix, Target: c.Target}
				switch spec.Name {
				case AuctionName:
					if !AuctionValidTarget(fix, c.Target) {
						t.Errorf("auction refuses %v", a)
					}
				case ReplicatedName:
					if _, err := newRepl(t, 1).Apply(a); err != nil {
						t.Errorf("replicated refuses %v: %v", a, err)
					}
				}
				if len(c.Metrics) == 0 {
					t.Errorf("%s: %v has no metrics", spec.Name, a)
				}
				for _, m := range c.Metrics {
					if !slices.Contains(names, m) {
						t.Errorf("%s: %v reads %q, which the target does not report", spec.Name, a, m)
					}
				}
			}
		}
	}
}
