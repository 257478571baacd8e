package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/faults"
	"selfheal/internal/targets"
)

// Table1Result verifies the paper's Table 1 empirically: for each failure
// kind, every candidate fix is applied against a live instance of the
// failure and the outcome recorded, along with one deliberately wrong fix
// as a control.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one failure kind's fix outcomes.
type Table1Row struct {
	Fault    catalog.FaultKind
	Target   string
	Outcomes []FixOutcome
}

// FixOutcome is the result of one fix attempt against a fresh failure.
type FixOutcome struct {
	Fix       catalog.FixID
	Target    string
	Recovered bool
	TTR       int64 // ticks from injection to clean SLO window; -1 if never
	Control   bool  // deliberately wrong fix
}

// targetFor maps a fix to the argument it needs for a given fault,
// substituting a plausible default when the fault's own target is of the
// wrong kind (e.g. a control fix applied to an unrelated failure).
func targetFor(fix catalog.FixID, f faults.Fault) string {
	var fallback string
	switch fix {
	case catalog.FixMicrorebootEJB:
		fallback = "ItemBean"
	case catalog.FixUpdateStats, catalog.FixRepartitionTable, catalog.FixRebuildIndex:
		fallback = "items"
	case catalog.FixProvisionTier, catalog.FixFailoverNode:
		fallback = "app"
	default:
		return ""
	}
	if t := f.Target(); targets.AuctionValidTarget(fix, t) {
		return t
	}
	return fallback
}

// controlFix returns a plausible-looking but wrong fix for the kind.
func controlFix(k catalog.FaultKind) catalog.FixID {
	switch k {
	case catalog.FaultStaleStats, catalog.FaultBlockContention, catalog.FaultBufferContention:
		return catalog.FixMicrorebootEJB
	default:
		return catalog.FixUpdateStats
	}
}

// RunTable1 regenerates Table 1.
func RunTable1(seed int64) Table1Result {
	res := Table1Result{}
	kinds := append(LearningKinds(),
		catalog.FaultOperatorConfig, catalog.FaultHardware, catalog.FaultNetwork)
	for ki, kind := range kinds {
		rowSeed := seed + int64(ki)*991
		// Every trial in the row re-draws the identical fault instance
		// (same target, same severity): the row compares fixes, not
		// fault parameters.
		proto := drawFault(rowSeed, kind)
		row := Table1Row{Fault: kind, Target: proto.Target()}
		fixesToTry := append([]catalog.FixID{}, catalog.CandidateFixes(kind)...)
		control := controlFix(kind)
		for i, fix := range fixesToTry {
			out := tryFix(rowSeed, int64(i), kind, fix, false)
			row.Outcomes = append(row.Outcomes, out)
		}
		row.Outcomes = append(row.Outcomes, tryFix(rowSeed, 777, kind, control, true))
		res.Rows = append(res.Rows, row)
	}
	return res
}

// drawFault deterministically draws the row's canonical fault instance.
func drawFault(rowSeed int64, kind catalog.FaultKind) faults.Fault {
	return faults.NewGenerator(rowSeed, kind).NextOfKind(kind)
}

// tryFix injects the row's fault instance on a fresh environment and
// applies fix once.
func tryFix(rowSeed, trial int64, kind catalog.FaultKind, fix catalog.FixID, control bool) FixOutcome {
	ctx := context.Background()
	f := drawFault(rowSeed, kind)
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(rowSeed+trial*17+1))
	t := sys.Target()
	injectedAt := t.Now()
	inject(sys, f)
	out := FixOutcome{Fix: fix, Control: control}
	if !sys.RunUntilFailing(ctx, 2500) {
		out.TTR = -1
		return out
	}
	target := targetFor(fix, f)
	if fix == catalog.FixNotifyAdmin {
		// The administrator applies the ground-truth fix at human
		// timescale.
		sys.StepN(600)
		cf, ct := f.CorrectFix()
		fix, target = cf, ct
	}
	out.Target = target
	if settle, err := t.Apply(selfheal.Action{Fix: fix, Target: target}); err == nil {
		sys.StepN(int(settle))
	}
	if sys.RunUntilRecovered(ctx, 80) {
		out.Recovered = true
		out.TTR = t.Now() - injectedAt
	} else {
		out.TTR = -1
	}
	return out
}

// Format renders the fault/fix matrix.
func (r Table1Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 1 — failures and candidate fixes (empirical outcomes)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s (target %s)\n", row.Fault, orDash(row.Target))
		for _, o := range row.Outcomes {
			mark := "FAIL"
			if o.Recovered {
				mark = "ok  "
			}
			kind := "candidate"
			if o.Control {
				kind = "control  "
			}
			ttr := "—"
			if o.TTR >= 0 {
				ttr = fmt.Sprintf("%ds", o.TTR)
			}
			fmt.Fprintf(&b, "    %s %s %-28s ttr=%s\n", kind, mark, actionString(o.Fix, o.Target), ttr)
		}
	}
	return b.String()
}

func actionString(fix catalog.FixID, target string) string {
	if target == "" {
		return fix.String()
	}
	return fix.String() + "(" + target + ")"
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}
