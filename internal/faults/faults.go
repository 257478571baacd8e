// Package faults implements the failure model of the paper's Table 1 plus
// the operator/hardware/network cause categories of its Figure 1. Each
// fault perturbs the simulated service's state to produce the symptom
// signature the paper attributes to that failure; the Injector tracks which
// faults are active and whether their effects have been cleared by a fix.
//
// Faults carry their own ground-truth fix (Table 1's first candidate). The
// learning layers never read it — it is used only to label held-out test
// data and to play the administrator when the healing loop escalates, as in
// Figure 3 lines 18–21.
package faults

import (
	"fmt"
	"slices"

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

// Injector tracks active faults against a service.
type Injector struct {
	env    Env
	active []Fault
}

// NewInjector builds an injector for the given service and workload.
func NewInjector(svc *service.Service, gen *workload.Generator) *Injector {
	return &Injector{env: Env{Svc: svc, Gen: gen}}
}

// Env returns the injection environment.
func (in *Injector) Env() *Env { return &in.env }

// Inject activates f. The active set is tracked by fault identity, not
// kind: several faults of the same kind coexist and clear independently,
// and re-injecting an instance that is already active (a flapping fault's
// next on-phase) re-applies its effect without duplicating the
// bookkeeping entry — so scripted cascades never leave ghost entries that
// would make AllCleared and Reap report a clear twice or not at all.
func (in *Injector) Inject(f Fault) {
	f.Inject(&in.env)
	for _, have := range in.active {
		if have == f {
			return
		}
	}
	in.active = append(in.active, f)
}

// Active returns the faults injected and not yet reaped.
func (in *Injector) Active() []Fault { return in.active }

// AllCleared reports whether every active fault's effect is gone.
func (in *Injector) AllCleared() bool {
	for _, f := range in.active {
		if !f.Cleared(&in.env) {
			return false
		}
	}
	return true
}

// Reap drops cleared faults from the active set and returns them.
func (in *Injector) Reap() []Fault {
	var cleared, live []Fault
	for _, f := range in.active {
		if f.Cleared(&in.env) {
			cleared = append(cleared, f)
		} else {
			live = append(live, f)
		}
	}
	in.active = live
	return cleared
}

// Withdraw clears f's effect if f is still active, then reaps. A fault
// already reaped is left alone: its state may since belong to another.
func (in *Injector) Withdraw(f Fault) {
	if slices.Contains(in.active, f) {
		f.Clear(&in.env)
		in.Reap()
	}
}

// Reset clears the active set without touching the service (used after a
// full restart, which wipes the corresponding state anyway).
func (in *Injector) Reset() { in.active = nil }

// String describes a fault for logs.
func Describe(f Fault) string {
	fix, target := f.CorrectFix()
	return fmt.Sprintf("%s on %q (cause %s, fix %s %s)", f.Kind(), f.Target(), f.Cause(), fix, target)
}
