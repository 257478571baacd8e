package catalog

import (
	"strings"
	"testing"
)

func TestFaultKindNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range FaultKinds() {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "fault(") {
			t.Errorf("kind %d has no canonical name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if len(FaultKinds()) != 11 {
		t.Errorf("expected 11 fault kinds, got %d", len(FaultKinds()))
	}
}

func TestFixIDNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range FixIDs() {
		s := f.String()
		if s == "" || strings.HasPrefix(s, "fix(") {
			t.Errorf("fix %d has no canonical name", int(f))
		}
		if seen[s] {
			t.Errorf("duplicate fix name %q", s)
		}
		seen[s] = true
	}
}

func TestCandidateFixesCoverEveryKind(t *testing.T) {
	for _, k := range FaultKinds() {
		fixes := CandidateFixes(k)
		if len(fixes) == 0 {
			t.Errorf("kind %v has no candidate fixes", k)
		}
		for _, f := range fixes {
			if f == FixNone {
				t.Errorf("kind %v lists FixNone", k)
			}
		}
	}
	if CandidateFixes(FaultNone) != nil {
		t.Error("FaultNone should have no candidates")
	}
}

func TestTable1FirstCandidates(t *testing.T) {
	// Pin the paper's Table 1 primary fixes.
	want := map[FaultKind]FixID{
		FaultDeadlock:         FixMicrorebootEJB,
		FaultException:        FixMicrorebootEJB,
		FaultStaleStats:       FixUpdateStats,
		FaultBlockContention:  FixRepartitionTable,
		FaultBufferContention: FixRepartitionMemory,
		FaultBottleneck:       FixProvisionTier,
	}
	for k, f := range want {
		if got := CandidateFixes(k)[0]; got != f {
			t.Errorf("%v primary fix %v, want %v", k, got, f)
		}
	}
}

func TestDefaultCauses(t *testing.T) {
	if DefaultCause(FaultOperatorConfig) != CauseOperator {
		t.Error("operator config should be operator-caused")
	}
	if DefaultCause(FaultDeadlock) != CauseSoftware {
		t.Error("deadlock should be software-caused")
	}
	if DefaultCause(FaultHardware) != CauseHardware || DefaultCause(FaultNetwork) != CauseNetwork {
		t.Error("hardware/network causes wrong")
	}
	if len(Causes()) != 5 {
		t.Errorf("causes %v", Causes())
	}
}

func TestTierRebootFix(t *testing.T) {
	cases := map[Tier]FixID{
		TierWeb: FixRebootWebTier,
		TierApp: FixRebootAppTier,
		TierDB:  FixRebootDBTier,
	}
	for tier, fix := range cases {
		if got := tier.RebootFix(); got != fix {
			t.Errorf("%v reboot fix %v want %v", tier, got, fix)
		}
	}
	if len(Tiers()) != 3 {
		t.Error("tier list wrong")
	}
	if TierWeb.String() != "web" || TierApp.String() != "app" || TierDB.String() != "db" {
		t.Error("tier names must match metric name prefixes")
	}
}
