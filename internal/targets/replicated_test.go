package targets

import (
	"strings"
	"testing"

	"selfheal/internal/catalog"
)

func newRepl(t *testing.T, seed int64) *Replicated {
	t.Helper()
	r, err := NewReplicated(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// warm advances the target past transients.
func warm(r *Replicated, n int) {
	for i := 0; i < n; i++ {
		r.Tick()
	}
}

func TestReplicatedHealthyBaseline(t *testing.T) {
	r := newRepl(t, 3)
	slo := r.Spec().SLO
	violated := 0
	warm(r, 20)
	for i := 0; i < 200; i++ {
		if slo.Violated(r.Tick()) {
			violated++
		}
	}
	if violated > 4 {
		t.Errorf("healthy replicated target violated its SLO on %d/200 ticks", violated)
	}
}

func TestReplicatedMetricsShape(t *testing.T) {
	r := newRepl(t, 5)
	names := r.MetricNames()
	row := make([]float64, len(names))
	warm(r, 10)
	r.ReadMetrics(row)
	// The shared service-level vocabulary must align with the auction
	// target's schema for cross-target knowledge bases.
	for _, want := range []string{"svc.latency.avg", "web.cpu.util", "app.cpu.util", "db.cpu.util"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %q missing from replicated schema", want)
		}
	}
	if rows := r.CallMatrixRows(); rows != len(r.CallMatrix()) {
		t.Errorf("CallMatrixRows %d != matrix rows %d", rows, len(r.CallMatrix()))
	}
	if cols := len(r.CallCallees()); cols != len(r.CallMatrix()[0]) {
		t.Errorf("callees %d != matrix cols %d", cols, len(r.CallMatrix()[0]))
	}
}

func TestReplicatedDeterminism(t *testing.T) {
	run := func() []float64 {
		r := newRepl(t, 11)
		_ = r.Inject(NewReplicaLeak("app-0", 0.01))
		var lat []float64
		for i := 0; i < 300; i++ {
			lat = append(lat, r.Tick().AvgLatencyMS)
		}
		return lat
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestReplicatedFaultsBecomeVisibleAndClear drives every catalog fault to
// SLO visibility, applies its ground-truth fix, and checks the fault
// clears and the SLO recovers — the target-level contract the healing
// loop depends on.
func TestReplicatedFaultsBecomeVisibleAndClear(t *testing.T) {
	cases := []struct {
		name  string
		fault replFault
	}{
		{"replica-down", NewReplicaDown("app-1")},
		{"bad-deploy", NewBadDeploy("app-0", 0.6)},
		{"routing-skew", NewRoutingSkew(0.92)},
		{"replica-leak", NewReplicaLeak("app-0", 0.012)},
		{"primary-degraded", NewPrimaryDegraded(0.3)},
		{"search-surge", NewSearchSurge(4.5, 2000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRepl(t, 17)
			slo := r.Spec().SLO
			warm(r, 60)
			if err := r.Inject(tc.fault); err != nil {
				t.Fatal(err)
			}
			visible := false
			for i := 0; i < 600; i++ {
				if slo.Violated(r.Tick()) {
					visible = true
					break
				}
			}
			if !visible {
				t.Fatal("fault never became SLO-visible")
			}
			fix, target := tc.fault.CorrectFix()
			settle, err := r.Apply(Action{Fix: fix, Target: target})
			if err != nil {
				t.Fatalf("correct fix rejected: %v", err)
			}
			for i := int64(0); i < settle; i++ {
				r.Tick()
			}
			if !tc.fault.cleared(r) {
				t.Fatal("correct fix did not clear the fault")
			}
			clean := 0
			for i := 0; i < 200 && clean < 20; i++ {
				if slo.Violated(r.Tick()) {
					clean = 0
				} else {
					clean++
				}
			}
			if clean < 20 {
				t.Fatal("SLO did not recover after the correct fix")
			}
		})
	}
}

func TestReplicatedApplyValidation(t *testing.T) {
	r := newRepl(t, 23)
	bad := []Action{
		{Fix: catalog.FixFailoverNode, Target: "ItemBean"},
		{Fix: catalog.FixRebootAppTier, Target: "web"},
		{Fix: catalog.FixProvisionTier, Target: "items"},
		{Fix: catalog.FixMicrorebootEJB, Target: "app-0"},
	}
	for _, a := range bad {
		if _, err := r.Apply(a); err == nil {
			t.Errorf("nonsense action %v accepted", a)
		}
	}
}

func TestReplicatedRejectsForeignFaults(t *testing.T) {
	r := newRepl(t, 29)
	if err := r.Inject(foreignFault{}); err == nil {
		t.Fatal("replicated target injected a foreign fault")
	}
}

// foreignFault satisfies Fault but carries no replicated mechanics.
type foreignFault struct{}

func (foreignFault) Kind() catalog.FaultKind { return catalog.FaultDeadlock }
func (foreignFault) Cause() catalog.Cause    { return catalog.CauseSoftware }
func (foreignFault) Target() string          { return "ItemBean" }
func (foreignFault) CorrectFix() (catalog.FixID, string) {
	return catalog.FixMicrorebootEJB, "ItemBean"
}

func TestReplicatedFaultGenValidation(t *testing.T) {
	r := newRepl(t, 31)
	if _, err := r.NewFaults(1, catalog.FaultStaleStats); err == nil {
		t.Fatal("replicated generator accepted a kind outside its catalog")
	} else if !strings.Contains(err.Error(), "valid kinds") {
		t.Errorf("error %q does not list valid kinds", err)
	}
	gen, err := r.NewFaults(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[catalog.FaultKind]bool{}
	for i := 0; i < 200; i++ {
		f := gen.Next()
		if !r.Spec().HasKind(f.Kind()) {
			t.Fatalf("generator drew %v, outside the catalog", f.Kind())
		}
		seen[f.Kind()] = true
	}
	if len(seen) != len(r.Spec().FaultKinds) {
		t.Errorf("generator covered %d/%d kinds in 200 draws", len(seen), len(r.Spec().FaultKinds))
	}
}

func TestAuctionRejectsForeignFaults(t *testing.T) {
	a, err := NewAuction(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Inject(NewReplicaDown("app-0")); err == nil {
		t.Fatal("auction target injected a replicated fault")
	}
}

func TestSpecValidateKinds(t *testing.T) {
	spec := ReplicatedSpec()
	if err := spec.ValidateKinds(spec.FaultKinds); err != nil {
		t.Errorf("own catalog rejected: %v", err)
	}
	err := spec.ValidateKinds([]catalog.FaultKind{catalog.FaultDeadlock, catalog.FaultAging})
	if err == nil {
		t.Fatal("foreign kind accepted")
	}
	if !strings.Contains(err.Error(), "deadlocked-threads") || !strings.Contains(err.Error(), "valid kinds") {
		t.Errorf("error %q should name the bad kind and list valid ones", err)
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := NewReplicated(Config{Seed: 1, Mix: "bidding"}); err == nil {
		t.Error("replicated target accepted the auction's bidding mix")
	}
	if _, err := NewReplicated(Config{Seed: 1, Mix: "readheavy"}); err != nil {
		t.Errorf("readheavy mix rejected: %v", err)
	}
	if _, err := NewAuction(Config{Seed: 1, Mix: "readheavy"}); err == nil {
		t.Error("auction target accepted the replicated readheavy mix")
	}
}

// TestReplicatedInjectDedups: re-injecting the same instance keeps one
// active entry; same-kind faults on different replicas clear
// independently.
func TestReplicatedInjectDedups(t *testing.T) {
	r := newRepl(t, 9)
	warm(r, 20)
	leak := NewReplicaLeak("app-0", 0.01)
	for i := 0; i < 3; i++ {
		if err := r.Inject(leak); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.Active()); n != 1 {
		t.Fatalf("re-injecting one instance left %d active entries", n)
	}
	deploy := NewBadDeploy("app-1", 0.5)
	if err := r.Inject(deploy); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Active()); n != 2 {
		t.Fatalf("distinct faults collapsed: %d active entries", n)
	}
	if err := r.ClearFault(deploy); err != nil {
		t.Fatal(err)
	}
	r.Reap()
	if n := len(r.Active()); n != 1 {
		t.Fatalf("clearing one fault left %d active entries", n)
	}
	if err := r.ClearFault(leak); err != nil {
		t.Fatal(err)
	}
	r.Reap()
	if n := len(r.Active()); n != 0 {
		t.Fatalf("active set not empty after clearing both: %d", n)
	}
}

// TestReplicatedClearFault: every scriptable kind un-does its effect.
func TestReplicatedClearFault(t *testing.T) {
	r := newRepl(t, 13)
	warm(r, 20)
	faults := []Fault{
		NewPrimaryDegraded(0.3),
		NewRoutingSkew(0.9),
		NewReplicaLeak("app-0", 0.02),
		NewBadDeploy("app-1", 0.5),
		NewSearchSurge(4, 100000),
		NewReplicaDown("app-0"),
	}
	for _, f := range faults {
		if err := r.Inject(f); err != nil {
			t.Fatalf("%v: %v", f.Kind(), err)
		}
		warm(r, 10)
		if err := r.ClearFault(f); err != nil {
			t.Fatalf("%v: clear: %v", f.Kind(), err)
		}
		// Cleared-ness is observed from live metrics (utilization must
		// drain after a surge stops), so settle before reaping.
		warm(r, 30)
		r.Reap()
		if n := len(r.Active()); n != 0 {
			t.Fatalf("%v not reaped after ClearFault", f.Kind())
		}
	}
	slo := r.Spec().SLO
	violated := 0
	for i := 0; i < 100; i++ {
		if slo.Violated(r.Tick()) {
			violated++
		}
	}
	if violated > 4 {
		t.Errorf("target unhealthy after clearing all faults: %d/100 violated ticks", violated)
	}
}

// TestReplicatedInjectPartial: grey severities scale the fault's effect;
// severity 1 is a plain injection; ReplicaDown refuses fractions.
func TestReplicatedInjectPartial(t *testing.T) {
	r := newRepl(t, 17)
	warm(r, 20)
	full := NewBadDeploy("app-0", 0.5)
	if err := r.InjectPartial(full, 0.2); err != nil {
		t.Fatal(err)
	}
	if r.replicas[0].errorRate != 0.1 {
		t.Fatalf("severity 0.2 of rate 0.5 gave errorRate %v, want 0.1", r.replicas[0].errorRate)
	}
	if err := r.InjectPartial(NewReplicaDown("app-1"), 0.5); err == nil {
		t.Fatal("fractional replica-down accepted")
	}
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := r.InjectPartial(full, bad); err == nil {
			t.Fatalf("severity %v accepted", bad)
		}
	}
	r2 := newRepl(t, 17)
	if err := r2.InjectPartial(NewBadDeploy("app-0", 0.5), 1); err != nil {
		t.Fatal(err)
	}
	if r2.replicas[0].errorRate != 0.5 {
		t.Fatalf("severity 1 should be a plain injection, errorRate %v", r2.replicas[0].errorRate)
	}
}

// TestReplicatedGreyFlap: a grey fault that flaps is tracked under the
// fault the scenario passed, so each ClearFault(f) quiets the
// severity-scaled copy InjectPartial applied, and one on-phase injected
// twice keeps one entry.
func TestReplicatedGreyFlap(t *testing.T) {
	r := newRepl(t, 19)
	warm(r, 20)
	f := NewBadDeploy("app-0", 0.5)
	for cycle := range 3 {
		for range 2 {
			if err := r.InjectPartial(f, 0.2); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(r.Active()); n != 1 {
			t.Fatalf("cycle %d: one grey fault injected twice left %d entries", cycle, n)
		}
		warm(r, 10)
		if err := r.ClearFault(f); err != nil {
			t.Fatal(err)
		}
		r.Reap()
		if n, rate := len(r.Active()), r.replicas[0].errorRate; n != 0 || rate != 0 {
			t.Fatalf("cycle %d: after ClearFault(f) and Reap: %d entries, errorRate %v", cycle, n, rate)
		}
		warm(r, 10)
	}
}

// TestMakeFaultBothTargets: the scripted-fault factory covers each
// target's catalog and rejects off-catalog kinds.
func TestMakeFaultBothTargets(t *testing.T) {
	r := newRepl(t, 21)
	for _, kind := range ReplicatedSpec().FaultKinds {
		f, err := r.MakeFault(kind, "", 0, 0)
		if err != nil {
			t.Errorf("replicated MakeFault(%v): %v", kind, err)
			continue
		}
		if f.Kind() != kind {
			t.Errorf("replicated MakeFault(%v) built a %v", kind, f.Kind())
		}
		if err := r.Inject(f); err != nil {
			t.Errorf("injecting made %v: %v", kind, err)
		}
	}
	if _, err := r.MakeFault(catalog.FaultDeadlock, "", 0, 0); err == nil {
		t.Error("replicated built an off-catalog deadlock fault")
	}

	a, err := NewAuction(Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range catalog.FaultKinds() {
		f, err := a.MakeFault(kind, "", 0, 0)
		if err != nil {
			t.Errorf("auction MakeFault(%v): %v", kind, err)
			continue
		}
		if f.Kind() != kind {
			t.Errorf("auction MakeFault(%v) built a %v", kind, f.Kind())
		}
		if err := a.Inject(f); err != nil {
			t.Errorf("injecting made %v: %v", kind, err)
		}
	}
	if _, err := a.MakeFault(catalog.FaultKind(99), "", 0, 0); err == nil {
		t.Error("auction built a fault for an unknown kind")
	}
}

// TestWorkloadShaperCapabilities: both targets expose the shaping
// capability and the directives move offered load in the right
// direction.
func TestWorkloadShaperCapabilities(t *testing.T) {
	for _, name := range []string{ReplicatedName, AuctionName} {
		var tg Target
		var err error
		if name == ReplicatedName {
			tg, err = NewReplicated(Config{Seed: 25})
		} else {
			tg, err = NewAuction(Config{Seed: 25})
		}
		if err != nil {
			t.Fatal(err)
		}
		ws, ok := tg.(WorkloadShaper)
		if !ok {
			t.Fatalf("%s target lacks WorkloadShaper", name)
		}
		warmT := func(n int) {
			for i := 0; i < n; i++ {
				tg.Tick()
			}
		}
		warmT(30)
		base := avgArrivals(tg, 30)
		ws.SetLoadScale(2.5)
		scaled := avgArrivals(tg, 30)
		if scaled <= base {
			t.Errorf("%s: 2.5x load scale did not raise offered load (%.3f -> %.3f)", name, base, scaled)
		}
		ws.SetLoadScale(1)
		ws.AddLoadSurge(0, 1<<40, 3)
		surged := avgArrivals(tg, 30)
		if surged <= base {
			t.Errorf("%s: surge did not raise offered load (%.3f -> %.3f)", name, base, surged)
		}
	}
}

func avgArrivals(tg Target, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += tg.Tick().Arrivals
	}
	return sum / float64(n)
}
