package targets

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/faults"
	"selfheal/internal/service"
)

// TestAuctionClearFaultEveryKind: for every kind MakeFault builds,
// ClearFault withdraws the fault at once — Cleared reports true, the
// active set empties, and the SLO monitor sees a clean window within the
// detection window plus a settle — and a second ClearFault is a no-op.
func TestAuctionClearFaultEveryKind(t *testing.T) {
	const (
		window, k = 15, 8 // the harness's default WindowTicks and DetectK
		settle    = 45
		stepped   = 30 // ticks the fault acts before it is withdrawn
	)
	kinds := catalog.FaultKinds()
	if len(kinds) != 11 {
		t.Fatalf("catalog has %d fault kinds, the test expects 11", len(kinds))
	}
	for _, kind := range kinds {
		// twin receives the same injection and one ClearFault, so any
		// state the second ClearFault changed shows up as divergence.
		var pair [2]*Auction
		var fs [2]faults.Fault
		for i := range pair {
			a, err := NewAuction(Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			f, err := a.MakeFault(kind, "", 0, 0)
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			for range 60 {
				a.Tick()
			}
			if err := a.Inject(f); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			for range stepped {
				a.Tick()
			}
			if err := a.ClearFault(f); err != nil {
				t.Fatalf("%v: clear: %v", kind, err)
			}
			pair[i], fs[i] = a, f.(faults.Fault)
		}
		a, f := pair[0], fs[0]
		if !f.Cleared(auctionEnv(a)) {
			t.Errorf("%v: Cleared false right after ClearFault", kind)
		}
		if n := len(a.Active()); n != 0 {
			t.Errorf("%v: %d faults active after ClearFault", kind, n)
		}
		a.Reap()
		if n := len(a.Active()); n != 0 {
			t.Errorf("%v: %d faults active after ClearFault and Reap", kind, n)
		}
		if err := a.ClearFault(f); err != nil {
			t.Fatalf("%v: second clear: %v", kind, err)
		}
		m := detect.NewMonitor(a.Spec().SLO, k, window)
		recoveredAt := -1
		for i := range window + settle {
			got, want := a.Tick(), pair[1].Tick()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: tick %d after a second ClearFault differs: %+v, want %+v", kind, i, got, want)
			}
			m.Observe(got)
			if recoveredAt < 0 && m.Recovered() {
				recoveredAt = i + 1
			}
		}
		if recoveredAt < 0 {
			t.Errorf("%v: no clean %d-tick window within %d ticks of ClearFault", kind, window, window+settle)
		}
		// Only aging leaks heap; its Clear gives the heap back and stops
		// the leak.
		if heap, base := a.svc.App.HeapUsedMB, a.svc.Config().BaseHeapMB; heap != base {
			t.Errorf("%v: app heap %v MB after ClearFault, want the base %v", kind, heap, base)
		}
	}
}

// TestAuctionClearFaultLeavesOthers: clearing one fault gives back only
// its own effect — its own nodes of a shared tier, its own operator knob
// — and leaves a second fault on the same state active.
func TestAuctionClearFaultLeavesOthers(t *testing.T) {
	a, err := NewAuction(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := auctionEnv(a)
	hw1, hw2 := faults.NewHardware(catalog.TierApp, 1), faults.NewHardware(catalog.TierApp, 1)
	pool := faults.NewOperatorConfig(service.KnobSmallConnPool, "", 0.85)
	threads := faults.NewOperatorConfig(service.KnobSmallThreadPool, "", 0.85)
	net := faults.NewNetwork(130, 0.05)
	for _, f := range []faults.Fault{hw1, hw2, pool, threads, net} {
		if err := a.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	a.Tick()
	for _, f := range []faults.Fault{hw1, pool, net} {
		if err := a.ClearFault(f); err != nil {
			t.Fatal(err)
		}
		if !f.Cleared(env) {
			t.Errorf("%s: Cleared false right after ClearFault", faults.Describe(f))
		}
	}
	if down := a.svc.App.NodesDown; down != 1 {
		t.Errorf("app tier has %d nodes down after clearing one of two one-node faults, want 1", down)
	}
	if hw2.Cleared(env) || threads.Cleared(env) {
		t.Errorf("a fault sharing state with a cleared one reads cleared: hardware %v, thread pool %v", hw2.Cleared(env), threads.Cleared(env))
	}
	if !reflect.DeepEqual(a.Active(), []faults.Fault{hw2, threads}) {
		t.Errorf("active after clearing three of five: %v", a.Active())
	}
}

// TestClearWithdrawnLeavesOthers: on every target, a fault already
// withdrawn and reaped is left alone by a second ClearFault, even once a
// later fault of the same kind has broken the same state again.
func TestClearWithdrawnLeavesOthers(t *testing.T) {
	cases := []struct {
		name       string
		target     func() (Target, error)
		old, fresh Fault
		// live reports whether fresh's effect is still on the target.
		live func(tg Target, fresh Fault) bool
	}{
		{
			name:   "auction/deadlock",
			target: func() (Target, error) { return NewAuction(Config{Seed: 3}) },
			old:    faults.NewDeadlock("ItemBean"), fresh: faults.NewDeadlock("ItemBean"),
			live: func(tg Target, fresh Fault) bool {
				return !fresh.(faults.Fault).Cleared(auctionEnv(tg.(*Auction)))
			},
		},
		{
			name:   "replicated/primary-degraded",
			target: func() (Target, error) { return NewReplicated(Config{Seed: 3}) },
			old:    NewPrimaryDegraded(0.3), fresh: NewPrimaryDegraded(0.3),
			live: func(tg Target, _ Fault) bool { return tg.(*Replicated).primaryCapFactor == 0.3 },
		},
		{
			name:   "replicated/search-surge",
			target: func() (Target, error) { return NewReplicated(Config{Seed: 3}) },
			old:    NewSearchSurge(4, 100000), fresh: NewSearchSurge(4, 100000),
			live: func(tg Target, _ Fault) bool {
				r := tg.(*Replicated)
				return r.surgeUntil > r.now
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg, err := tc.target()
			if err != nil {
				t.Fatal(err)
			}
			for range 20 {
				tg.Tick()
			}
			for _, step := range []func() error{
				func() error { return tg.Inject(tc.old) },
				func() error { return tg.ClearFault(tc.old) },
				func() error { tg.Reap(); return nil },
				func() error { return tg.Inject(tc.fresh) },
				func() error { return tg.ClearFault(tc.old) },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
				tg.Tick()
			}
			if !tc.live(tg, tc.fresh) {
				t.Error("clearing a withdrawn fault again cleared a later one of the same kind")
			}
			if _, ok := tg.CorrectFix(); !ok {
				t.Error("the later fault left the active set")
			}
		})
	}
}

// auctionEnv is the environment a's faults act on.
func auctionEnv(a *Auction) *faults.Env { return &faults.Env{Svc: a.svc, Gen: a.gen} }

// liveAuction is an auction target 30 ticks into its bidding workload.
func liveAuction(t *testing.T) *Auction {
	t.Helper()
	a, err := NewAuction(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for range 30 {
		a.Tick()
	}
	return a
}

// TestAuctionSettleForEveryFix: every catalog fix has a settle time, and
// the settle table holds no fix the catalog lacks.
func TestAuctionSettleForEveryFix(t *testing.T) {
	for _, id := range catalog.FixIDs() {
		if _, ok := auctionSettle[id]; !ok {
			t.Errorf("no settle time for %v", id)
		}
	}
	if len(auctionSettle) != len(catalog.FixIDs()) {
		t.Errorf("%d settle times for %d fixes", len(auctionSettle), len(catalog.FixIDs()))
	}
}

// TestAuctionApplyEveryFix: every catalog fix applies to a live auction
// at a valid target and returns its own settle time.
func TestAuctionApplyEveryFix(t *testing.T) {
	targets := map[catalog.FixID]string{
		catalog.FixMicrorebootEJB:   "ItemBean",
		catalog.FixUpdateStats:      "items",
		catalog.FixRepartitionTable: "bids",
		catalog.FixRebuildIndex:     "users",
		catalog.FixProvisionTier:    "app",
		catalog.FixFailoverNode:     "web",
	}
	for _, id := range catalog.FixIDs() {
		settle, err := liveAuction(t).Apply(Action{Fix: id, Target: targets[id]})
		if err != nil {
			t.Errorf("apply %v: %v", id, err)
		} else if settle != auctionSettle[id] {
			t.Errorf("%v settles in %d ticks, the table says %d", id, settle, auctionSettle[id])
		}
	}
}

// TestAuctionApplyRejectsBadTargets: a missing, wrong-kind or unknown
// target, or an unknown fix, is an error with no effect on the service —
// the target then runs tick for tick like a twin that was never touched.
func TestAuctionApplyRejectsBadTargets(t *testing.T) {
	a, twin := liveAuction(t), liveAuction(t)
	for _, act := range []Action{
		{Fix: catalog.FixMicrorebootEJB},
		{Fix: catalog.FixMicrorebootEJB, Target: "items"},
		{Fix: catalog.FixUpdateStats, Target: "ItemBean"},
		{Fix: catalog.FixRebuildIndex, Target: "nope"},
		{Fix: catalog.FixProvisionTier, Target: "disk"},
		{Fix: catalog.FixFailoverNode},
		{Fix: catalog.FixNone},
		{Fix: catalog.FixID(999), Target: "x"},
	} {
		if settle, err := a.Apply(act); err == nil || settle != 0 {
			t.Errorf("Apply(%v) = %d, %v; want 0 and an error", act, settle, err)
		}
	}
	if !reflect.DeepEqual(a.svc, twin.svc) {
		t.Error("a rejected fix changed the service")
	}
	for i := range 60 {
		if got, want := a.Tick(), twin.Tick(); !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d after rejected fixes: %+v, want %+v", i, got, want)
		}
	}
}

// TestAuctionFixesActOnService: a fix changes the service state it is
// named for.
func TestAuctionFixesActOnService(t *testing.T) {
	a := liveAuction(t)
	svc := a.svc
	apply := func(fix catalog.FixID, target string) {
		t.Helper()
		if _, err := a.Apply(Action{Fix: fix, Target: target}); err != nil {
			t.Fatal(err)
		}
	}

	svc.DB.Table("items").StatsStale = true
	svc.DB.Table("items").PlanSlowdown = 7
	apply(catalog.FixUpdateStats, "items")
	if svc.DB.Table("items").StatsStale {
		t.Error("update-statistics did not clear staleness")
	}

	svc.App.EJB("BidBean").Deadlocked = true
	apply(catalog.FixMicrorebootEJB, "BidBean")
	if svc.App.EJB("BidBean").Deadlocked {
		t.Error("microreboot did not clear the deadlock")
	}

	before := svc.App.Nodes
	apply(catalog.FixProvisionTier, "app")
	if svc.App.Nodes <= before {
		t.Error("provisioning did not add nodes")
	}

	apply(catalog.FixRebootDBTier, "")
	if svc.DB.Up() {
		t.Error("db reboot did not take the tier down")
	}
}

// TestAuctionValidTarget pins Spec.Declares on the auction target to the
// rule its Apply checked before the spec declared it: an EJB for a
// microreboot, a table for the table fixes, a tier for provisioning and
// failover, anything for the other Table 1 fixes, nothing for an unknown
// fix — for every fix against every EJB, table and tier, "" and a bogus
// name.
func TestAuctionValidTarget(t *testing.T) {
	valid := func(id catalog.FixID, target string) bool {
		switch id {
		case catalog.FixMicrorebootEJB:
			return slices.Contains(service.EJBNames(), target)
		case catalog.FixUpdateStats, catalog.FixRepartitionTable, catalog.FixRebuildIndex:
			return slices.Contains(service.TableNames(), target)
		case catalog.FixProvisionTier, catalog.FixFailoverNode:
			_, err := catalog.ParseTier(target)
			return err == nil
		}
		_, ok := auctionSettle[id]
		return ok
	}
	names := append(append(service.EJBNames(), service.TableNames()...), "web", "app", "db", "", "bogus")
	spec := AuctionSpec()
	for _, id := range append(catalog.FixIDs(), catalog.FixNone, catalog.FixID(99)) {
		for _, target := range names {
			a := Action{Fix: id, Target: target}
			if got, want := spec.Declares(a), valid(id, target); got != want {
				t.Errorf("Declares(%v) = %v want %v", a, got, want)
			}
		}
	}
}

// TestAuctionNewFaultsValidatesKinds: unknown kinds are rejected before
// any draw, with an error naming the target whose catalog refused them —
// a user mixing up catalogs ("-faults replica-down" on auction) sees which
// target said no — and listing the valid kinds. Valid kinds draw the
// Table 1 generator's stream at the same seed.
func TestAuctionNewFaultsValidatesKinds(t *testing.T) {
	a, err := NewAuction(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.NewFaults(1, catalog.FaultKind(99), catalog.FaultNone)
	if err == nil {
		t.Fatal("unknown kinds accepted")
	}
	for _, want := range []string{`target "auction"`, "fault(99)", "none", "valid kinds", catalog.FaultDeadlock.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	for _, kinds := range [][]catalog.FaultKind{nil, {catalog.FaultDeadlock, catalog.FaultAging}} {
		gen, err := a.NewFaults(7, kinds...)
		if err != nil {
			t.Fatalf("kinds %v rejected: %v", kinds, err)
		}
		ref := faults.NewGenerator(7, kinds...)
		for i := range 20 {
			if got, want := gen.Next(), ref.Next(); !reflect.DeepEqual(got, want) {
				t.Fatalf("kinds %v, draw %d: %+v, want %+v", kinds, i, got, want)
			}
		}
	}
}
