package core_test

import (
	"context"
	"slices"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/diagnose"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// stubApproach recommends one action unless it abstains or has tried it,
// and counts how often it was asked.
type stubApproach struct {
	name    string
	action  core.Action
	conf    float64
	abstain bool
	asked   int
}

func (s *stubApproach) Name() string { return s.name }
func (s *stubApproach) Recommend(_ *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	s.asked++
	if s.abstain || slices.Contains(tried, s.action) {
		return core.Action{}, 0, false
	}
	return s.action, s.conf, true
}
func (s *stubApproach) Observe(*core.FailureContext, core.Action, bool) {}

// stubSynopsis suggests a fixed fix at a fixed confidence (none when sug
// is nil) and records what it is taught.
type stubSynopsis struct {
	sug     *synopsis.Suggestion
	added   []synopsis.Point
	batches int
}

func (s *stubSynopsis) Name() string         { return "stub" }
func (s *stubSynopsis) Add(p synopsis.Point) { s.added = append(s.added, p) }
func (s *stubSynopsis) AddBatch(ps []synopsis.Point) {
	s.batches++
	s.added = append(s.added, ps...)
}
func (s *stubSynopsis) Suggest([]float64, *synopsis.ActionFilter) (synopsis.Suggestion, bool) {
	if s.sug == nil {
		return synopsis.Suggestion{}, false
	}
	return *s.sug, true
}
func (s *stubSynopsis) RankK([]float64, int) []synopsis.Suggestion { return nil }
func (s *stubSynopsis) TrainingSize() int                          { return len(s.added) }
func (s *stubSynopsis) Export() ([]synopsis.Point, error)          { return s.added, nil }

func dummyCtx() *core.FailureContext {
	h := core.NewHarness(core.DefaultHarnessConfig())
	return h.BuildContext()
}

var (
	learned    = core.Action{Fix: catalog.FixUpdateStats, Target: "items"}
	bottleneck = core.Action{Fix: catalog.FixProvisionTier, Target: "db"}
	anomaly    = core.Action{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"}
)

// gate builds a hybrid whose FixSym suggests learned at conf (nothing when
// conf < 0) in front of a bottleneck and an anomaly stub.
func gate(conf float64) (*core.Hybrid, *stubSynopsis, *stubApproach, *stubApproach) {
	syn := &stubSynopsis{}
	if conf >= 0 {
		syn.sug = &synopsis.Suggestion{Action: learned, Confidence: conf}
	}
	b := &stubApproach{name: "bottleneck", action: bottleneck, conf: 0.9}
	a := &stubApproach{name: "anomaly", action: anomaly, conf: 0.8}
	return core.NewHybrid(core.NewFixSym(syn), b, a), syn, b, a
}

// TestHybridGateTakesConfidentFixSym: at confidence ½ and above, FixSym's
// fix holds a majority of its ranked score mass and answers without a
// diagnosis.
func TestHybridGateTakesConfidentFixSym(t *testing.T) {
	for _, conf := range []float64{0.5, 0.8, 1} {
		h, _, b, a := gate(conf)
		action, got, ok := h.Recommend(&core.FailureContext{}, nil)
		if !ok || action != learned || got != conf {
			t.Errorf("confidence %.2f: got %v at %.2f (ok %v), want FixSym's %v", conf, action, got, ok, learned)
		}
		if b.asked+a.asked != 0 {
			t.Errorf("confidence %.2f: the diagnosers were asked %d times, want none", conf, b.asked+a.asked)
		}
	}
}

// TestHybridBelowGateAsksFallbacksInOrder: below ½, or with no suggestion
// at all, the first fallback that answers wins, at its own confidence.
func TestHybridBelowGateAsksFallbacksInOrder(t *testing.T) {
	for _, conf := range []float64{0.49, 0.1, -1} {
		h, _, b, a := gate(conf)
		if action, got, ok := h.Recommend(&core.FailureContext{}, nil); !ok || action != bottleneck || got != b.conf {
			t.Errorf("confidence %.2f: got %v at %.2f, want bottleneck's %v", conf, action, got, bottleneck)
		}
		if a.asked != 0 {
			t.Errorf("confidence %.2f: anomaly was asked after bottleneck answered", conf)
		}
		b.abstain = true
		if action, got, ok := h.Recommend(&core.FailureContext{}, nil); !ok || action != anomaly || got != a.conf {
			t.Errorf("confidence %.2f: got %v at %.2f, want anomaly's %v once bottleneck abstains", conf, action, got, anomaly)
		}
	}
	// A fallback's tried action does not answer either.
	h, _, _, _ := gate(0.2)
	if action, _, _ := h.Recommend(&core.FailureContext{}, []core.Action{bottleneck}); action != anomaly {
		t.Errorf("got %v, want anomaly's %v once bottleneck's action was tried", action, anomaly)
	}
}

// TestHybridKeepsFixSymsLowConfidenceGuess: when no fallback answers,
// FixSym's suggestion below the gate is still better than nothing; with
// no suggestion either, the hybrid abstains.
func TestHybridKeepsFixSymsLowConfidenceGuess(t *testing.T) {
	h, _, b, a := gate(0.2)
	b.abstain, a.abstain = true, true
	if action, got, ok := h.Recommend(&core.FailureContext{}, nil); !ok || action != learned || got != 0.2 {
		t.Errorf("got %v at %.2f (ok %v), want FixSym's %v at 0.20", action, got, ok, learned)
	}
	h, _, b, a = gate(-1)
	b.abstain, a.abstain = true, true
	if action, _, ok := h.Recommend(&core.FailureContext{}, nil); ok {
		t.Errorf("recommended %v with no suggestion from anyone", action)
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

// TestHybridFixSymLearnsDiagnosedFixes: FixSym learns every outcome,
// the fixes the diagnosers found included, one at a time and as one
// batch through its synopsis's AddBatch.
func TestHybridFixSymLearnsDiagnosedFixes(t *testing.T) {
	h, syn, _, _ := gate(-1)
	fctx := &core.FailureContext{Symptom: []float64{1, 2}}
	action, _, _ := h.Recommend(fctx, nil)
	h.Observe(fctx, action, true)
	if len(syn.added) != 1 || syn.added[0].Action != bottleneck || !syn.added[0].Success {
		t.Fatalf("FixSym learned %v, want bottleneck's success", syn.added)
	}
	h.ObserveBatch([]core.Observation{
		{Ctx: fctx, Action: anomaly, Success: false},
		{Ctx: fctx, Action: bottleneck, Success: true},
	})
	if syn.batches != 1 || len(syn.added) != 3 || syn.added[1].Action != anomaly || syn.added[2].Action != bottleneck {
		t.Errorf("batch reached FixSym as %d AddBatch calls holding %v, want one with both outcomes in order", syn.batches, syn.added[1:])
	}
}

// TestHybridEvidenceIsTheUnion: the hybrid reads what any member reads.
func TestHybridEvidenceIsTheUnion(t *testing.T) {
	fs := func() *core.FixSym { return core.NewFixSym(synopsis.NewNearestNeighbor()) }
	if e := core.NewHybrid(fs()).Evidence(); e != 0 {
		t.Errorf("FixSym alone reads evidence %b, want none", e)
	}
	e := core.NewHybrid(fs(), diagnose.NewBottleneck(), diagnose.NewAnomaly(), diagnose.NewCorrelation(), diagnose.NewPathAnalysis()).Evidence()
	if want := core.EvidenceHistory | core.EvidenceCalls | core.EvidencePaths; e != want {
		t.Errorf("evidence %b, want %b", e, want)
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
