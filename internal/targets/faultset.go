package targets

import (
	"fmt"
	"slices"
)

// FaultSet is a target's active-fault set: the bookkeeping behind
// Target.Inject, Reap and CorrectFix and behind FaultClearer, written once
// for every target. A target builds it from three mechanics of its own —
// apply a fault's effect, withdraw it, and report whether it is gone from
// the live state — and embeds the set to get the four methods. One rule
// holds for every target:
//
//   - A fault is tracked by the identity the caller injected. Re-injecting
//     it (a flapping fault's next on-phase) re-applies its effect but adds
//     no second entry; distinct faults of one kind coexist and clear
//     independently.
//   - ClearFault withdraws a fault only while the set still holds it. A
//     fault already reaped is left alone: its state may since belong to a
//     later fault.
//   - Reap keeps the remaining faults in injection order, and CorrectFix
//     names the first one not yet cleared.
//   - A fault of a foreign type is an error naming the target kind.
type FaultSet[F Fault] struct {
	kind    string
	inject  func(F) error
	clear   func(F) error
	cleared func(F) bool
	active  []tracked[F]
}

// tracked is one active fault: id is the fault the caller injected, f the
// one whose mechanics act. They differ only for a grey failure, whose
// severity-scaled copy is tracked under the caller's fault.
type tracked[F Fault] struct {
	id Fault
	f  F
}

// NewFaultSet builds the set for the target kind from its mechanics.
// cleared reads the live state, not the bookkeeping.
func NewFaultSet[F Fault](kind string, inject, clear func(F) error, cleared func(F) bool) FaultSet[F] {
	return FaultSet[F]{kind: kind, inject: inject, clear: clear, cleared: cleared}
}

// own converts f to the target's fault type, or names the target kind
// that cannot do op with it.
func (s *FaultSet[F]) own(f Fault, op string) (F, error) {
	ff, ok := f.(F)
	if !ok {
		return ff, fmt.Errorf("targets: %s target cannot %s %T (%v)", s.kind, op, f, f.Kind())
	}
	return ff, nil
}

// Inject implements Target.
func (s *FaultSet[F]) Inject(f Fault) error {
	ff, err := s.own(f, "inject")
	if err != nil {
		return err
	}
	return s.injectAs(f, ff)
}

// injectAs applies f's effect and tracks it under id.
func (s *FaultSet[F]) injectAs(id Fault, f F) error {
	if err := s.inject(f); err != nil {
		return err
	}
	for i := range s.active {
		if s.active[i].id == id {
			s.active[i].f = f
			return nil
		}
	}
	s.active = append(s.active, tracked[F]{id: id, f: f})
	return nil
}

// Reap implements Target.
func (s *FaultSet[F]) Reap() {
	s.active = slices.DeleteFunc(s.active, func(t tracked[F]) bool { return s.cleared(t.f) })
}

// CorrectFix implements Target.
func (s *FaultSet[F]) CorrectFix() (Action, bool) {
	for _, t := range s.active {
		if !s.cleared(t.f) {
			fix, target := t.f.CorrectFix()
			return Action{Fix: fix, Target: target}, true
		}
	}
	return Action{}, false
}

// ClearFault implements FaultClearer: while the set holds f, its effect is
// withdrawn and the set reaped, so f leaves it as soon as it reads cleared.
func (s *FaultSet[F]) ClearFault(f Fault) error {
	if _, err := s.own(f, "clear"); err != nil {
		return err
	}
	i := slices.IndexFunc(s.active, func(t tracked[F]) bool { return t.id == f })
	if i < 0 {
		return nil
	}
	if err := s.clear(s.active[i].f); err != nil {
		return err
	}
	s.Reap()
	return nil
}

// Active returns the tracked faults in injection order; a grey failure
// shows as its severity-scaled copy.
func (s *FaultSet[F]) Active() []F {
	out := make([]F, len(s.active))
	for i, t := range s.active {
		out[i] = t.f
	}
	return out
}
