// Package diagnose implements the diagnosis-based fix-identification
// approaches of the paper's §4.3.1–§4.3.3 — anomaly detection, correlation
// analysis and bottleneck analysis — plus path-based failure management
// (refs [5], [8]) and the manual rule-based baseline of §3. All five
// implement core.Approach, so the comparison of Table 2 is a like-for-like
// evaluation against FixSym.
//
// Diagnosis approaches first identify a suspicious attribute or component,
// then map it to a fix via the service-structure knowledge the target
// declares (targets.Spec.Diagnosis, read through the FailureContext): "if
// the number of accesses to an index is correlated with failure, then the
// index can be rebuilt" (Example 3). Only bottleneck analysis reasons over
// named gauges, Example 4's database ones.
package diagnose

import (
	"slices"

	"selfheal/internal/core"
)

// candidate is an internal scored recommendation.
type candidate struct {
	action core.Action
	score  float64
}

// pickUntried returns the best candidate not yet attempted: the highest
// score, the smaller action key on a tie, so the choice is deterministic.
func pickUntried(cands []candidate, tried []core.Action) (core.Action, float64, bool) {
	var best *candidate
	for i, c := range cands {
		if slices.Contains(tried, c.action) {
			continue
		}
		if best == nil || c.score > best.score || (c.score == best.score && c.action.Key() < best.action.Key()) {
			best = &cands[i]
		}
	}
	if best == nil {
		return core.Action{}, 0, false
	}
	return best.action, best.score, true
}
