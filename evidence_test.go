package selfheal_test

import (
	"context"
	"testing"

	"selfheal"
	"selfheal/internal/core"
)

// labeledContext is one detected failure as a harness gathering every kind
// of evidence saw it, with its ground-truth fix.
type labeledContext struct {
	fctx  *core.FailureContext
	label core.Action
}

// detectedContexts injects n seeded faults of the target kind, each on a
// fresh harness that no healer has narrowed, and returns the failures that
// were detected.
func detectedContexts(t *testing.T, kind selfheal.TargetKind, seed int64, n int) []labeledContext {
	t.Helper()
	ctx := context.Background()
	probe, err := selfheal.NewTarget(kind, selfheal.TargetConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := probe.NewFaults(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []labeledContext
	for i := 0; i < n; i++ {
		tg, err := selfheal.NewTarget(kind, selfheal.TargetConfig{Seed: seed + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultHarnessConfig()
		cfg.SLO = tg.Spec().SLO
		h := core.NewTargetHarness(tg, cfg)
		if fctx, label, ok := h.LabeledFailure(ctx, gen.Next(), 600); ok {
			out = append(out, labeledContext{fctx, label})
		}
	}
	return out
}

// declaredOnly copies fctx keeping only the optional evidence e: History
// falls back to the Recent window, and undeclared calls and paths are nil.
func declaredOnly(fctx *core.FailureContext, e core.Evidence) *core.FailureContext {
	c := *fctx
	if e&core.EvidenceHistory == 0 {
		c.History = c.Recent
	}
	if e&core.EvidenceCalls == 0 {
		c.CallCallees, c.CallAnomalies = nil, nil
	}
	if e&core.EvidencePaths == 0 {
		c.Paths = nil
	}
	return &c
}

// TestEvidenceDeclarationsAreHonest: every registered approach recommends
// the same action at the same confidence from a context that holds only
// the optional evidence it declares as from the full context, over seeded
// auction and replicated failures — so a harness that gathers only the
// declared evidence heals exactly as one that gathers everything. The
// learning approaches are first taught half the failures.
func TestEvidenceDeclarationsAreHonest(t *testing.T) {
	var cases []labeledContext
	cases = append(cases, detectedContexts(t, selfheal.TargetAuction, 11, 24)...)
	cases = append(cases, detectedContexts(t, selfheal.TargetReplicated, 13, 12)...)
	if len(cases) < 20 {
		t.Fatalf("only %d failures detected", len(cases))
	}
	readers := map[core.Evidence]bool{}
	for _, kind := range selfheal.ApproachKinds() {
		a, err := selfheal.NewApproach(kind)
		if err != nil {
			t.Fatal(err)
		}
		var declared core.Evidence
		if r, ok := a.(core.EvidenceReader); ok {
			declared = r.Evidence()
		}
		for _, c := range cases[:len(cases)/2] {
			a.Observe(c.fctx, c.label, true)
		}
		recommended := 0
		for i, c := range cases {
			part := declaredOnly(c.fctx, declared)
			var tried []core.Action
			for attempt := 0; attempt < 2; attempt++ {
				want, wantConf, wantOK := a.Recommend(c.fctx, tried)
				got, gotConf, gotOK := a.Recommend(part, tried)
				if got != want || gotConf != wantConf || gotOK != wantOK {
					t.Errorf("%s, failure %d (%s), attempt %d: declared evidence %03b gives %v %.4g %v, full context %v %.4g %v",
						kind, i, c.label.Key(), attempt, declared, got, gotConf, gotOK, want, wantConf, wantOK)
				}
				if !wantOK {
					break
				}
				recommended++
				tried = append(tried, want)
			}
		}
		if recommended == 0 {
			t.Errorf("%s recommended nothing: the comparison is empty", kind)
		}
		readers[declared] = true
	}
	// The registry holds readers of each kind of evidence, so the test
	// compares contexts that differ.
	for _, e := range []core.Evidence{core.EvidenceHistory | core.EvidenceCalls, core.EvidenceCalls, core.EvidencePaths, 0} {
		if !readers[e] {
			t.Errorf("no registered approach declares %03b", e)
		}
	}
}
