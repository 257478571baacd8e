package experiments

import (
	"fmt"
	"strings"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/synopsis"
)

// TestFigure1Shape checks the campaign reproduces the paper's headline:
// operator error is the most prominent cause of user-visible failures for
// the Online profile.
func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res := RunFigure1(18, 60)
	if len(res.Profiles) != 3 {
		t.Fatalf("profiles %v", res.Profiles)
	}
	online := res.Share[0]
	opIdx := 0 // catalog.Causes() puts operator first
	if res.Causes[opIdx] != catalog.CauseOperator {
		t.Fatal("cause ordering changed")
	}
	for ci, c := range res.Causes {
		if c == catalog.CauseOperator || c == catalog.CauseSoftware {
			continue
		}
		if online[ci] >= online[opIdx] {
			t.Errorf("cause %v share %.2f >= operator %.2f in Online", c, online[ci], online[opIdx])
		}
	}
	if online[opIdx] < 0.25 {
		t.Errorf("Online operator share %.2f too low", online[opIdx])
	}
	if res.Counts[0] < 40 {
		t.Errorf("only %d/60 Online failures detected", res.Counts[0])
	}
	if !strings.Contains(res.Format(), "operator") {
		t.Error("formatted output missing cause rows")
	}
}

// TestFigure2Shape checks the recovery-time campaign: operator-caused
// failures take the longest to recover under manual operations.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res := RunFigure2(18, 40)
	for pi, profile := range res.Profiles {
		op := res.MeanTTR[pi][0] // operator
		sw := res.MeanTTR[pi][1] // software
		if op < 0 || sw < 0 {
			t.Errorf("%s: missing TTR data op=%v sw=%v", profile, op, sw)
			continue
		}
		if op <= sw {
			t.Errorf("%s: operator TTR %.0f not slower than software %.0f", profile, op, sw)
		}
	}
}

// TestTable1Candidates checks the empirical fault/fix matrix: the primary
// Table 1 candidate recovers each failure, and the control fix never does.
func TestTable1Candidates(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res := RunTable1(71)
	if len(res.Rows) != 11 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Outcomes) < 2 {
			t.Errorf("%v has %d outcomes", row.Fault, len(row.Outcomes))
			continue
		}
		primary := row.Outcomes[0]
		if !primary.Recovered {
			t.Errorf("%v: primary candidate %v did not recover", row.Fault, primary.Fix)
		}
		control := row.Outcomes[len(row.Outcomes)-1]
		if !control.Control {
			t.Errorf("%v: last outcome is not the control", row.Fault)
		}
		if control.Recovered {
			t.Errorf("%v: control fix %v recovered — checks too lax", row.Fault, control.Fix)
		}
	}
}

// TestTable2Shape runs the quick approach comparison and checks the
// paper's qualitative claims hold where they are strongest.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res := RunTable2(Table2Config{Seed: 71, Episodes: 12})
	t.Logf("\n%s", res.Format())
	idx := func(name string) int {
		for i, a := range res.Approaches {
			if a == name {
				return i
			}
		}
		t.Fatalf("approach %s missing", name)
		return -1
	}
	scen := func(name string) int {
		for i, s := range res.Scenarios {
			if s == name {
				return i
			}
		}
		t.Fatalf("scenario %s missing", name)
		return -1
	}
	fixsym := idx("fixsym-nearest-neighbor")
	correlation := idx("correlation-analysis")
	bottleneck := idx("bottleneck-analysis")

	rec, novel, rare := scen("recurring"), scen("novel"), scen("rare")

	// The signature approach's defining property: recurrences of taught
	// failures are handled far better than first occurrences.
	fsRec, fsNovel := res.Cells[fixsym][rec], res.Cells[fixsym][novel]
	if fsRec.CorrectFirst < fsNovel.CorrectFirst+0.3 {
		t.Errorf("fixsym shows no learning effect: recurring %.2f vs novel %.2f",
			fsRec.CorrectFirst, fsNovel.CorrectFirst)
	}
	if fsRec.Escalated >= fsNovel.Escalated {
		t.Errorf("fixsym escalation did not fall with experience: %.2f vs %.2f",
			fsRec.Escalated, fsNovel.Escalated)
	}
	// Correlation analysis "may fail to find fixes for failures ... that
	// occur rarely" (§4.3.2).
	if res.Cells[correlation][rare].CorrectFirst > 0.4 {
		t.Errorf("correlation analysis unexpectedly strong on rare failures: %.2f",
			res.Cells[correlation][rare].CorrectFirst)
	}
	// Shifting bottlenecks: bottleneck analysis handles them without
	// escalating.
	shift := scen("bottleneck-shift")
	if res.Cells[bottleneck][shift].Escalated > 0.4 {
		t.Errorf("bottleneck analysis escalated %.0f%% of shifting bottlenecks",
			100*res.Cells[bottleneck][shift].Escalated)
	}
	if res.Cells[bottleneck][shift].CorrectFirst < 0.6 {
		t.Errorf("bottleneck analysis first-try %.2f on its home scenario",
			res.Cells[bottleneck][shift].CorrectFirst)
	}
}

// TestAblationsRun exercises every §5 ablation at smoke size and checks
// each one's directional claim.
func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation experiments")
	}
	t.Run("hybrid", func(t *testing.T) {
		res := RunHybridAblation(71, 10)
		t.Log(res.Format())
		// The hybrid should escalate no more than FixSym alone on a
		// cold-start stream.
		if res.Escalated[2] > res.Escalated[0] {
			t.Errorf("hybrid escalated %.2f > fixsym alone %.2f", res.Escalated[2], res.Escalated[0])
		}
	})
	t.Run("online-drift", func(t *testing.T) {
		res := RunOnlineDriftAblation(71, 20)
		t.Log(res.Format())
		if res.OnlineAccuracy < res.FrozenAccuracy {
			t.Errorf("online %.2f below frozen %.2f under drift", res.OnlineAccuracy, res.FrozenAccuracy)
		}
	})
	t.Run("confidence", func(t *testing.T) {
		res := RunConfidenceAblation(71, 8)
		t.Log(res.Format())
		if res.RankedMeanAttempts > res.UnrankedMeanAttempts {
			t.Errorf("ranked attempts %.2f worse than anti-ranked %.2f",
				res.RankedMeanAttempts, res.UnrankedMeanAttempts)
		}
	})
	t.Run("negative-data", func(t *testing.T) {
		res := RunNegativeDataAblation(71, 10)
		t.Log(res.Format())
		// A poisoned synopsis recovers only through the negative channel.
		if res.WithNegatives < res.WithoutNegatives+0.3 {
			t.Errorf("negative learning shows no benefit on poisoned data: with=%.2f without=%.2f",
				res.WithNegatives, res.WithoutNegatives)
		}
	})
	t.Run("proactive", func(t *testing.T) {
		// Each row is a seed, the horizon in ticks, and a bound on the
		// SLO-violating ticks the forecaster may leave on a steady leak.
		for _, row := range []struct {
			seed           int64
			horizon, bound int
		}{{71, 1800, 150}, {17, 1500, 200}, {99, 1800, 150}} {
			t.Run(fmt.Sprintf("seed=%d", row.seed), func(t *testing.T) {
				res := RunProactiveAblation(row.seed, row.horizon)
				t.Log(res.Format())
				if res.ProactiveActions == 0 {
					t.Error("forecaster never acted")
				}
				if res.ProactiveBadTicks > row.bound {
					t.Errorf("proactive run had %d bad ticks, want at most %d",
						res.ProactiveBadTicks, row.bound)
				}
				if res.ProactiveBadTicks >= res.ReactiveBadTicks {
					t.Errorf("proactive %d bad ticks not below reactive %d",
						res.ProactiveBadTicks, res.ReactiveBadTicks)
				}
			})
		}
	})
	t.Run("control", func(t *testing.T) {
		res := RunControlAblation(71)
		t.Log(res.Format())
		if !res.Settled {
			t.Error("correct fix's transient did not settle")
		}
		if !res.Flapping.Unstable {
			t.Error("symptomatic-relief loop not flagged as flapping")
		}
	})
}

// TestOnlineForgets: the drift ablation's sliding window forgets a stale
// signature once newer successes push it out, and never holds more than
// its window of successes.
func TestOnlineForgets(t *testing.T) {
	oldAction := synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"}
	newAction := synopsis.Action{Fix: catalog.FixRepartitionMemory}
	on := slidingWindow{synopsis.NewNearestNeighbor(), 5}
	// Old world: x≈+5 means update-stats.
	for i := 0; i < 5; i++ {
		on.Add(synopsis.Point{X: []float64{5, 0}, Action: oldAction, Success: true})
	}
	// Drifted world: the same region now means repartition-memory.
	for i := 0; i < 6; i++ {
		on.Add(synopsis.Point{X: []float64{5, 0}, Action: newAction, Success: true})
		if on.TrainingSize() > on.window {
			t.Fatalf("window of %d holds %d successes", on.window, on.TrainingSize())
		}
	}
	sug, ok := on.Suggest([]float64{5, 0}, nil)
	if !ok {
		t.Fatal("abstained")
	}
	if sug.Action.Fix != newAction.Fix {
		t.Errorf("online synopsis stuck on stale signature: %v", sug.Action)
	}
}

// TestScenarioSweepShape: the sweep covers every library scenario and
// learner, and the shipped cascade breaks at least one learner — the
// regime single-fault campaigns never reach.
func TestScenarioSweepShape(t *testing.T) {
	res := RunScenarioSweep(42)
	if len(res.Scenarios) != 4 || len(res.Learners) != 4 {
		t.Fatalf("sweep is %d scenarios x %d learners", len(res.Scenarios), len(res.Learners))
	}
	broke := false
	for si, name := range res.Scenarios {
		for li := range res.Learners {
			st := res.Cells[si][li]
			if st.Injections == 0 {
				t.Errorf("%s/%s: no injections", name, res.Learners[li])
			}
			if name == "cascade-db-replica" && st.RecoveredPct() < 100 {
				broke = true
			}
		}
	}
	if !broke {
		t.Error("cascade-db-replica recovered 100% for every learner; the sweep lost its point")
	}
	out := res.Format()
	for _, want := range []string{"cascade-db-replica", "flash-crowd", "det="} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q", want)
		}
	}
}
