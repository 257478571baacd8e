// Package faults implements the failure model of the paper's Table 1 plus
// the operator/hardware/network cause categories of its Figure 1. Each
// fault perturbs the simulated service's state to produce the symptom
// signature the paper attributes to that failure, reports from the live
// state whether a fix has cleared it, and can withdraw its own effect. Which
// faults are active is the target's bookkeeping (internal/targets), not
// this package's.
//
// Faults carry their own ground-truth fix (Table 1's first candidate). The
// learning layers never read it — it is used only to label held-out test
// data and to play the administrator when the healing loop escalates, as in
// Figure 3 lines 18–21.
package faults

import (
	"fmt"

	"selfheal/internal/catalog"
	"selfheal/internal/service"
	"selfheal/internal/workload"
)

// Fault is one failure instance.
type Fault interface {
	// Kind is the Table 1 failure type.
	Kind() catalog.FaultKind
	// Cause is the Figure 1 cause category.
	Cause() catalog.Cause
	// Target names the component/table/tier the fault strikes ("" if
	// service-wide).
	Target() string
	// CorrectFix is the ground-truth fix and its target.
	CorrectFix() (catalog.FixID, string)
	// Inject applies the fault to the service.
	Inject(env *Env)
	// Cleared reports whether the fault's effect is gone from the service.
	Cleared(env *Env) bool
	// Clear is the exact inverse of Inject: it withdraws this fault's own
	// effect without a fix, after which Cleared reports true at once.
	// Clearing a fault that Cleared already reports gone is a no-op.
	Clear(env *Env)
}

// Env is everything a fault may touch: the service and (for offered-load
// faults like tier bottlenecks) the workload generator.
type Env struct {
	Svc *service.Service
	Gen *workload.Generator
}

// Describe renders a fault for logs.
func Describe(f Fault) string {
	fix, target := f.CorrectFix()
	return fmt.Sprintf("%s on %q (cause %s, fix %s %s)", f.Kind(), f.Target(), f.Cause(), fix, target)
}
