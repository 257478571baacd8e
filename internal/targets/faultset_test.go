package targets

import (
	"reflect"
	"strings"
	"testing"

	"selfheal/internal/catalog"
)

// liveFault is a fault whose effect is one flag: the set's mechanics in
// miniature. clears counts the withdrawals its target performed.
type liveFault struct {
	name   string
	live   bool
	clears int
}

func (f *liveFault) Kind() catalog.FaultKind { return catalog.FaultException }
func (f *liveFault) Cause() catalog.Cause    { return catalog.CauseSoftware }
func (f *liveFault) Target() string          { return f.name }
func (f *liveFault) CorrectFix() (catalog.FixID, string) {
	return catalog.FixMicrorebootEJB, f.name
}

func newLiveSet() *FaultSet[*liveFault] {
	s := NewFaultSet("test",
		func(f *liveFault) error { f.live = true; return nil },
		func(f *liveFault) error { f.live = false; f.clears++; return nil },
		func(f *liveFault) bool { return !f.live })
	return &s
}

// TestFaultSetDedupsByIdentity: re-injecting one fault (a flapping fault's
// next on-phase) keeps one entry, while distinct faults of the same kind
// coexist, stay in injection order, and clear independently.
func TestFaultSetDedupsByIdentity(t *testing.T) {
	s := newLiveSet()
	f, other := &liveFault{name: "BidBean"}, &liveFault{name: "ItemBean"}
	for range 3 {
		if err := s.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Active()); n != 1 {
		t.Fatalf("re-injecting one fault left %d entries", n)
	}
	if err := s.Inject(other); err != nil {
		t.Fatal(err)
	}
	if got := s.Active(); !reflect.DeepEqual(got, []*liveFault{f, other}) {
		t.Fatalf("two same-kind faults: active %v", got)
	}
	f.live = false // fixed
	s.Reap()
	if got := s.Active(); !reflect.DeepEqual(got, []*liveFault{other}) {
		t.Fatalf("reap after fixing one of two same-kind faults: active %v", got)
	}
}

// TestFaultSetCorrectFixSkipsCleared: CorrectFix names the first fault
// whose effect is still live, and reports none once every one is gone,
// whether or not the set has been reaped.
func TestFaultSetCorrectFixSkipsCleared(t *testing.T) {
	s := newLiveSet()
	f1, f2 := &liveFault{name: "BidBean"}, &liveFault{name: "ItemBean"}
	for _, f := range []*liveFault{f1, f2} {
		if err := s.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	if a, ok := s.CorrectFix(); !ok || a.Target != "BidBean" {
		t.Fatalf("two live faults: CorrectFix %v %v, want the first", a, ok)
	}
	f1.live = false
	if a, ok := s.CorrectFix(); !ok || a.Target != "ItemBean" {
		t.Fatalf("first fault fixed: CorrectFix %v %v, want the second", a, ok)
	}
	f2.live = false
	if a, ok := s.CorrectFix(); ok {
		t.Fatalf("every fault fixed: CorrectFix still names %v", a)
	}
	if n := len(s.Active()); n != 2 {
		t.Fatalf("CorrectFix reaped: %d entries left", n)
	}
}

// TestFaultSetClearFaultOnlyWhileHeld: ClearFault withdraws a held fault
// and reaps it at once; a fault never injected or already reaped is left
// alone, and a foreign fault is an error naming the target kind.
func TestFaultSetClearFaultOnlyWhileHeld(t *testing.T) {
	s := newLiveSet()
	f, stranger := &liveFault{name: "BidBean"}, &liveFault{name: "ItemBean", live: true}
	if err := s.Inject(f); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := s.ClearFault(f); err != nil {
			t.Fatal(err)
		}
	}
	if f.live || f.clears != 1 || len(s.Active()) != 0 {
		t.Fatalf("clearing a held fault twice: live %v, %d clears, %d entries", f.live, f.clears, len(s.Active()))
	}
	if err := s.ClearFault(stranger); err != nil || stranger.clears != 0 {
		t.Fatalf("clearing a fault never injected: err %v, %d clears", err, stranger.clears)
	}
	for _, err := range []error{s.Inject(foreignFault{}), s.ClearFault(foreignFault{})} {
		if err == nil || !strings.Contains(err.Error(), "test target") {
			t.Errorf("foreign fault: error %v does not name the target kind", err)
		}
	}
}

// TestFaultSetGreyFlapTracksCaller: a copy injected under the caller's
// fault is what the set clears and reaps when the caller's fault is
// withdrawn, and re-injecting under the same fault keeps one entry.
func TestFaultSetGreyFlapTracksCaller(t *testing.T) {
	s := newLiveSet()
	f := &liveFault{name: "BidBean"}
	for cycle := range 2 {
		var copies []*liveFault
		for range 2 {
			c := &liveFault{name: f.name}
			copies = append(copies, c)
			if err := s.injectAs(f, c); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Active(); !reflect.DeepEqual(got, copies[1:]) {
			t.Fatalf("cycle %d: two injections under one fault: active %v", cycle, got)
		}
		if err := s.ClearFault(f); err != nil {
			t.Fatal(err)
		}
		if copies[1].live || len(s.Active()) != 0 {
			t.Fatalf("cycle %d: clearing the caller's fault left the copy live %v, %d entries", cycle, copies[1].live, len(s.Active()))
		}
	}
	if f.clears != 0 {
		t.Errorf("the caller's own fault was cleared %d times; only its copies act", f.clears)
	}
}
