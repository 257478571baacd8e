package diagnose

import (
	"selfheal/internal/core"
	"selfheal/internal/trace"
)

// PathAnalysis is path-based failure management (the paper's refs [5] and
// [8]): it infers the failing component from the control-flow paths of
// requests rather than from aggregate metrics. Components that travel with
// failed requests and not with successful ones are implicated; the fix is
// a microreboot of the top suspect, with an app-tier restart as the
// second-line recommendation when one component cannot be singled out.
//
// Like the other diagnosis approaches it needs invasive instrumentation —
// per-request path tracing through every tier — which is precisely the
// data-requirements weakness Table 2 records for fine-grained diagnosis.
type PathAnalysis struct {
	// MinFailedPaths is the minimum number of failed paths before the
	// inference is trusted.
	MinFailedPaths int
	// MinScore is the minimum failure-association score for a suspect.
	MinScore float64
}

// NewPathAnalysis returns the path-based approach.
func NewPathAnalysis() *PathAnalysis {
	return &PathAnalysis{MinFailedPaths: 3, MinScore: 0.15}
}

// Name implements core.Approach.
func (p *PathAnalysis) Name() string { return "path-analysis" }

// Observe implements core.Approach; path inference is stateless.
func (p *PathAnalysis) Observe(*core.FailureContext, core.Action, bool) {}

// Evidence implements core.EvidenceReader: the inference reads the
// sampled request paths.
func (p *PathAnalysis) Evidence() core.Evidence { return core.EvidencePaths }

// Recommend implements core.Approach.
func (p *PathAnalysis) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	if len(ctx.Paths) == 0 {
		return core.Action{}, 0, false
	}
	fpi := trace.NewFPI()
	for _, path := range ctx.Paths {
		fpi.Add(path)
	}
	failed, _ := fpi.Paths()
	if failed < p.MinFailedPaths {
		// Failures without path signatures (pure performance problems)
		// are outside this approach's reach.
		return core.Action{}, 0, false
	}
	var cands []candidate
	for rank, cs := range fpi.Ranked() {
		if cs.Score < p.MinScore || rank > 2 {
			break
		}
		if act, ok := ctx.ComponentFix(cs.Component); ok {
			cands = append(cands, candidate{action: act, score: cs.Score})
		}
	}
	// Second line: if components cannot be separated (everything fails
	// everywhere), the target's fix for no component in particular.
	if act, ok := ctx.ComponentFix(""); ok {
		cands = append(cands, candidate{action: act, score: 0.05})
	}
	return pickUntried(cands, tried)
}
