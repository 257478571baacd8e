// Package diagnose implements the diagnosis-based fix-identification
// approaches of the paper's §4.3.1–§4.3.3 — anomaly detection, correlation
// analysis and bottleneck analysis — plus the manual rule-based baseline of
// §3. All four implement core.Approach, so the comparison of Table 2 is a
// like-for-like evaluation against FixSym.
//
// Diagnosis approaches first identify a suspicious attribute or component,
// then map it to a fix via the service-structure knowledge encoded in the
// metric names ("if the number of accesses to an index is correlated with
// failure, then the index can be rebuilt" — Example 3).
package diagnose

import (
	"strings"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/metrics"
)

// candidate is an internal scored recommendation.
type candidate struct {
	action core.Action
	score  float64
}

// actionsForMetric maps an implicated metric to the recovery actions the
// paper's examples prescribe, in preference order. direction is the sign of
// the deviation (+1 elevated, -1 depressed).
func actionsForMetric(name string, direction float64, ctx *core.FailureContext) []core.Action {
	parts := metrics.ParseName(name)
	switch {
	case name == "app.heap.occ" || name == "app.heap.used" || name == "app.gc.overhead":
		if direction > 0 {
			return []core.Action{{Fix: catalog.FixRebootAppTier, Target: "app"}}
		}
	case name == "db.buffer.hitratio":
		if direction < 0 {
			return []core.Action{{Fix: catalog.FixRepartitionMemory}}
		}
	case name == "db.io.util":
		if direction > 0 {
			return []core.Action{{Fix: catalog.FixRepartitionMemory}}
		}
	case name == "db.conns.util":
		if direction > 0 {
			return []core.Action{{Fix: catalog.FixRestoreConfig}}
		}
	case name == "db.plan.slowdown":
		if direction > 0 {
			if t, ok := ctx.Localise(catalog.FixUpdateStats); ok {
				return []core.Action{{Fix: catalog.FixUpdateStats, Target: t}}
			}
		}
	case name == "db.lockwait.avgms":
		if direction > 0 {
			if t, ok := ctx.Localise(catalog.FixRepartitionTable); ok {
				return []core.Action{{Fix: catalog.FixRepartitionTable, Target: t}}
			}
		}
	case name == "app.threads.util":
		if direction > 0 {
			if e := topCallAnomaly(ctx); e != "" {
				return []core.Action{{Fix: catalog.FixMicrorebootEJB, Target: e}}
			}
			return []core.Action{{Fix: catalog.FixRebootAppTier, Target: "app"}}
		}
	case name == "net.latency.ms" || name == "net.loss":
		if direction > 0 {
			return []core.Action{{Fix: catalog.FixFailoverNode, Target: "web"}}
		}
	case name == "web.nodes.up" || name == "app.nodes.up" || name == "db.nodes.up":
		if direction < 0 {
			return []core.Action{{Fix: catalog.FixFailoverNode, Target: parts[0]}}
		}
	case strings.HasPrefix(name, "db.table.") && len(parts) == 4:
		table := parts[2]
		switch parts[3] {
		case "lockms":
			if direction > 0 {
				return []core.Action{{Fix: catalog.FixRepartitionTable, Target: table}}
			}
		case "costops":
			if direction > 0 {
				// A table suddenly expensive: stale stats first, damaged
				// index second (Example 3's index observation).
				return []core.Action{
					{Fix: catalog.FixUpdateStats, Target: table},
					{Fix: catalog.FixRebuildIndex, Target: table},
				}
			}
		}
	case strings.HasPrefix(name, "app.ejb.") && len(parts) == 4 && parts[3] == "calls":
		// "if an attribute representing method invocations of an EJB is
		// correlated with failure, then a likely fix is to microreboot the
		// EJB" (Example 3).
		return []core.Action{{Fix: catalog.FixMicrorebootEJB, Target: parts[2]}}
	case name == "web.cpu.util" || name == "app.cpu.util" || name == "db.cpu.util":
		if direction > 0 {
			return []core.Action{{Fix: catalog.FixProvisionTier, Target: parts[0]}}
		}
	}
	return nil
}

// topCallAnomaly returns the EJB most implicated by the χ² call-matrix
// test, if any.
func topCallAnomaly(ctx *core.FailureContext) string {
	if len(ctx.CallAnomalies) == 0 {
		return ""
	}
	return ctx.CallCallees[ctx.CallAnomalies[0].Col]
}

// dedupe keeps the highest-scoring instance of each action.
func dedupe(cands []candidate) []candidate {
	best := make(map[string]candidate, len(cands))
	for _, c := range cands {
		k := c.action.Key()
		if b, ok := best[k]; !ok || c.score > b.score {
			best[k] = c
		}
	}
	out := make([]candidate, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	sortCandidates(out)
	return out
}

func sortCandidates(cands []candidate) {
	// Insertion sort: candidate lists are tiny and this keeps ordering
	// deterministic (score desc, then key asc).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.score > a.score || (b.score == a.score && b.action.Key() < a.action.Key()) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
}

// pickUntried returns the best candidate not yet attempted.
func pickUntried(cands []candidate, tried []core.Action) (core.Action, float64, bool) {
	seen := make(map[string]bool, len(tried))
	for _, a := range tried {
		seen[a.Key()] = true
	}
	for _, c := range cands {
		if !seen[c.action.Key()] {
			return c.action, c.score, true
		}
	}
	return core.Action{}, 0, false
}
