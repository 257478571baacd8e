package core_test

import (
	"context"

	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// TestEpisodeLifecycle runs the Figure 3 loop end to end with a FixSym
// approach: the first failure of a kind escalates to the administrator
// (empty synopsis), and a recurrence of the same failure is fixed from the
// learned signature without escalation.
func TestEpisodeLifecycle(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	fs := core.NewFixSym(synopsis.NewNearestNeighbor())
	hl := core.NewHealer(h, fs, core.DefaultHealerConfig())
	hl.AdminOracle = h.Target.CorrectFix

	// First occurrence: nothing learned yet → escalation path.
	ep1 := hl.RunEpisode(context.Background(), faults.NewStaleStats("items", 6))
	if !ep1.Detected {
		t.Fatal("stale-stats failure not detected")
	}
	if !ep1.Escalated {
		t.Errorf("first-ever failure should escalate (empty synopsis), got attempts=%d", len(ep1.Attempts))
	}
	if !ep1.Recovered {
		t.Fatal("episode 1 did not recover")
	}
	if fs.Syn.TrainingSize() == 0 {
		t.Fatal("administrator fix was not learned")
	}

	// Let the service settle back to health.
	h.StepN(120)

	// Recurrence: the signature is known → fixed without escalation.
	ep2 := hl.RunEpisode(context.Background(), faults.NewStaleStats("items", 5))
	if !ep2.Detected {
		t.Fatal("recurrence not detected")
	}
	if ep2.Escalated {
		t.Error("recurrence should not escalate")
	}
	if !ep2.Recovered {
		t.Fatal("episode 2 did not recover")
	}
	if !ep2.CorrectFirst {
		t.Errorf("recurrence should be fixed on first attempt, attempts=%d", len(ep2.Attempts))
	}
	if ep2.TTR() >= ep1.TTR() {
		t.Errorf("learned fix should be faster: ep1 TTR=%d ep2 TTR=%d", ep1.TTR(), ep2.TTR())
	}
	t.Logf("ep1 TTR=%d (escalated), ep2 TTR=%d attempts=%d", ep1.TTR(), ep2.TTR(), len(ep2.Attempts))
}

// TestEpisodeDistinctFaults teaches the healer two different failures and
// checks it does not confuse their signatures.
func TestEpisodeDistinctFaults(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	fs := core.NewFixSym(synopsis.NewNearestNeighbor())
	hl := core.NewHealer(h, fs, core.DefaultHealerConfig())
	hl.AdminOracle = h.Target.CorrectFix

	teach := []faults.Fault{
		faults.NewStaleStats("items", 6),
		faults.NewBufferContention(0.8),
		faults.NewException("BidBean", 0.7),
	}
	for _, f := range teach {
		ep := hl.RunEpisode(context.Background(), f)
		if !ep.Recovered {
			t.Fatalf("teaching episode for %s did not recover", f.Kind())
		}
		h.StepN(150)
	}

	probe := []faults.Fault{
		faults.NewBufferContention(0.75),
		faults.NewException("BidBean", 0.6),
		faults.NewStaleStats("items", 5),
	}
	wrong := 0
	for _, f := range probe {
		ep := hl.RunEpisode(context.Background(), f)
		if !ep.Recovered {
			t.Fatalf("probe episode for %s did not recover", f.Kind())
		}
		if ep.Escalated || !ep.CorrectFirst {
			wrong++
			t.Logf("probe %s: escalated=%v attempts=%d", f.Kind(), ep.Escalated, len(ep.Attempts))
		}
		h.StepN(150)
	}
	if wrong > 1 {
		t.Errorf("healer confused %d of 3 known signatures", wrong)
	}
}

// TestDeadlockCallMatrixLocalization checks that a deadlock produces call
// matrix anomalies implicating the deadlocked component (Example 2).
func TestDeadlockCallMatrixLocalization(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	h.StepN(200) // grow the call baseline
	ctx, _, ok := h.LabeledFailure(context.Background(), faults.NewDeadlock("ItemBean"), 200)
	if !ok {
		t.Fatal("deadlock not detected")
	}
	if len(ctx.CallAnomalies) == 0 {
		t.Fatal("no call-matrix anomalies for deadlocked component")
	}
	top := ctx.CallCallees[ctx.CallAnomalies[0].Col]
	if top != "ItemBean" {
		t.Errorf("χ² localization picked %s, want ItemBean (scores: %v)", top, ctx.CallAnomalies[:min(3, len(ctx.CallAnomalies))])
	}
}

// TestAdminOracleMatchesTable1 confirms the oracle reveals Table 1's first
// candidate for each fault kind.
func TestAdminOracleMatchesTable1(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	f := faults.NewBlockContention("bids", 150)
	if err := h.Target.Inject(f); err != nil {
		t.Fatal(err)
	}
	oracle := h.Target.CorrectFix
	action, ok := oracle()
	if !ok {
		t.Fatal("oracle found no fault")
	}
	if action.Fix != catalog.FixRepartitionTable || action.Target != "bids" {
		t.Errorf("oracle = %v, want repartition-table(bids)", action)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
