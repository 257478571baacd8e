package core_test

import (
	"context"

	"strings"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/diagnose"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// stubApproach always recommends one action.
type stubApproach struct {
	name   string
	action core.Action
	conf   float64
}

func (s *stubApproach) Name() string { return s.name }
func (s *stubApproach) Recommend(_ *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	for _, a := range tried {
		if a == s.action {
			return core.Action{}, 0, false
		}
	}
	return s.action, s.conf, true
}
func (s *stubApproach) Observe(*core.FailureContext, core.Action, bool) {}

func dummyCtx() *core.FailureContext {
	h := core.NewHarness(core.DefaultHarnessConfig())
	return h.BuildContext()
}

func TestHybridPicksHighestWeightedConfidence(t *testing.T) {
	a := &stubApproach{name: "a", action: core.Action{Fix: catalog.FixUpdateStats, Target: "items"}, conf: 0.9}
	b := &stubApproach{name: "b", action: core.Action{Fix: catalog.FixRepartitionMemory}, conf: 0.3}
	h := core.NewHybrid(a, b)
	ctx := dummyCtx()
	action, _, ok := h.Recommend(ctx, nil)
	if !ok || action != a.action {
		t.Fatalf("picked %v, want the 0.9-confidence proposal", action)
	}
}

func TestHybridReliabilityWeightsMove(t *testing.T) {
	a := &stubApproach{name: "a", action: core.Action{Fix: catalog.FixUpdateStats, Target: "items"}, conf: 0.9}
	b := &stubApproach{name: "b", action: core.Action{Fix: catalog.FixRepartitionMemory}, conf: 0.8}
	h := core.NewHybrid(a, b)
	ctx := dummyCtx()
	// Approach a's proposal keeps failing.
	for i := 0; i < 12; i++ {
		action, _, ok := h.Recommend(ctx, nil)
		if !ok {
			t.Fatal("hybrid abstained")
		}
		h.Observe(ctx, action, action != a.action)
	}
	w := h.Weights()
	if w[0] >= w[1] {
		t.Errorf("failing approach's weight %.2f not below succeeding one's %.2f", w[0], w[1])
	}
	// Eventually b's weighted confidence must win.
	action, _, _ := h.Recommend(ctx, nil)
	if action != b.action {
		t.Errorf("hybrid still proposing the unreliable approach's action %v", action)
	}
	if !strings.Contains(h.String(), "a:") {
		t.Error("String() should render weights")
	}
}

func TestHybridFeedsAllObservers(t *testing.T) {
	syn := synopsis.NewNearestNeighbor()
	fs := core.NewFixSym(syn)
	h := core.NewHybrid(fs, diagnose.NewAnomaly())
	ctx := dummyCtx()
	action := core.Action{Fix: catalog.FixUpdateStats, Target: "items"}
	h.Observe(ctx, action, true)
	if syn.TrainingSize() != 1 {
		t.Error("hybrid did not forward the observation to FixSym's synopsis")
	}
}

func TestHarnessDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := core.DefaultHarnessConfig()
		cfg.Seed = 123
		h := core.NewHarness(cfg)
		fctx, _, ok := h.LabeledFailure(context.Background(), faults.NewStaleStats("items", 8), 600)
		if !ok {
			t.Fatal("stale statistics never became SLO-visible")
		}
		return fctx.Symptom
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("symptom widths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("symptom[%d] differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestContextAccessors(t *testing.T) {
	ctx := dummyCtx()
	if ctx.ZScore("no.such.metric") != 0 {
		t.Error("unknown metric z-score should be 0")
	}
	if ctx.CurrentMean("no.such.metric") != 0 || ctx.Latest("no.such.metric") != 0 {
		t.Error("unknown metric reads should be 0")
	}
	if ctx.BaselineMean("svc.throughput") <= 0 {
		t.Error("baseline throughput should be positive")
	}
	if len(ctx.Paths) == 0 {
		t.Error("context carries no sampled paths")
	}
}

// TestHybridBatchedCreditsFollowProposalOrder reproduces the deferred-
// flush regime (LearnBatch > 1): the same action key proposed by two
// different sub-approaches across episodes before either outcome flushes.
// Outcomes replay in arrival order, so the first outcome must debit the
// first proposer and the second credit the second — not both landing on
// whoever proposed last.
func TestHybridBatchedCreditsFollowProposalOrder(t *testing.T) {
	action := core.Action{Fix: catalog.FixUpdateStats, Target: "items"}
	a := &stubApproach{name: "a", action: action, conf: 0.9}
	b := &stubApproach{name: "b", action: action, conf: 0.1}
	h := core.NewHybrid(a, b)
	fctx := &core.FailureContext{}

	// Episode 1: a's high confidence wins the proposal.
	if _, _, ok := h.Recommend(fctx, nil); !ok {
		t.Fatal("no recommendation")
	}
	// Episode 2, before episode 1's outcome flushed: b wins now.
	a.conf, b.conf = 0.1, 0.9
	if _, _, ok := h.Recommend(fctx, nil); !ok {
		t.Fatal("no recommendation")
	}

	h.ObserveBatch([]core.Observation{
		{Ctx: fctx, Action: action, Success: false}, // episode 1: a's miss
		{Ctx: fctx, Action: action, Success: true},  // episode 2: b's hit
	})
	w := h.Weights()
	if w[0] >= 1 {
		t.Errorf("first proposer was not debited for its failure: weight %.3f", w[0])
	}
	if w[1] != 1 {
		t.Errorf("second proposer's success did not hold its weight at 1: weight %.3f", w[1])
	}
}

// TestHybridAbandonedProposalDoesNotStealCredit: a recommendation whose
// episode was cancelled mid-check is abandoned by the healer; a later
// proposer of the same action must receive the next outcome's credit, not
// the stale entry.
func TestHybridAbandonedProposalDoesNotStealCredit(t *testing.T) {
	action := core.Action{Fix: catalog.FixUpdateStats, Target: "items"}
	a := &stubApproach{name: "a", action: action, conf: 0.9}
	b := &stubApproach{name: "b", action: action, conf: 0.1}
	h := core.NewHybrid(a, b)
	fctx := &core.FailureContext{}

	// a proposes, then the episode dies mid-check: outcome never arrives.
	if _, _, ok := h.Recommend(fctx, nil); !ok {
		t.Fatal("no recommendation")
	}
	h.AbandonProposal(action)

	// Next episode: b proposes the same action and fails.
	a.conf, b.conf = 0.1, 0.9
	if _, _, ok := h.Recommend(fctx, nil); !ok {
		t.Fatal("no recommendation")
	}
	h.Observe(fctx, action, false)

	w := h.Weights()
	if w[0] != 1 {
		t.Errorf("abandoned proposer was debited for an outcome it never owned: weight %.3f", w[0])
	}
	if w[1] >= 1 {
		t.Errorf("actual proposer escaped the debit: weight %.3f", w[1])
	}
}
