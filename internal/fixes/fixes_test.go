package fixes

import (
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/service"
	"selfheal/internal/workload"
)

func newService(t *testing.T) *service.Service {
	t.Helper()
	svc := service.New(service.DefaultConfig())
	gen := workload.NewGenerator(workload.BiddingMix(), 3)
	for i := 0; i < 30; i++ {
		svc.Tick(gen.Arrivals(svc.Now()))
	}
	return svc
}

// TestProfileForEveryFix: the actuator has a profile for every fix in the
// catalog, filed under its own ID.
func TestProfileForEveryFix(t *testing.T) {
	for _, id := range catalog.FixIDs() {
		p, ok := profiles[id]
		if !ok {
			t.Errorf("no profile for %v", id)
		} else if p.id != id {
			t.Errorf("profile for %v has id %v", id, p.id)
		}
	}
	if len(profiles) != len(catalog.FixIDs()) {
		t.Errorf("%d profiles for %d fixes", len(profiles), len(catalog.FixIDs()))
	}
}

func TestApplyEveryFix(t *testing.T) {
	targets := map[catalog.FixID]string{
		catalog.FixMicrorebootEJB:   "ItemBean",
		catalog.FixUpdateStats:      "items",
		catalog.FixRepartitionTable: "bids",
		catalog.FixRebuildIndex:     "users",
		catalog.FixProvisionTier:    "app",
		catalog.FixFailoverNode:     "web",
	}
	for _, id := range catalog.FixIDs() {
		svc := newService(t)
		act := NewActuator(svc)
		app, err := act.Apply(id, targets[id])
		if err != nil {
			t.Errorf("apply %v: %v", id, err)
			continue
		}
		if app.Fix != id || app.Target != targets[id] || app.AppliedAt != svc.Now() {
			t.Errorf("application records %+v for %v on %q at %d", app, id, targets[id], svc.Now())
		}
		if app.SettleTicks != profiles[id].settleTicks {
			t.Errorf("%v settle %d != profile %d", id, app.SettleTicks, profiles[id].settleTicks)
		}
	}
}

func TestApplyRejectsBadTargets(t *testing.T) {
	svc := newService(t)
	act := NewActuator(svc)
	if _, err := act.Apply(catalog.FixMicrorebootEJB, ""); err == nil {
		t.Error("missing target accepted")
	}
	if _, err := act.Apply(catalog.FixMicrorebootEJB, "items"); err == nil {
		t.Error("table name accepted as EJB target")
	}
	if _, err := act.Apply(catalog.FixUpdateStats, "ItemBean"); err == nil {
		t.Error("EJB name accepted as table target")
	}
	if _, err := act.Apply(catalog.FixID(999), "x"); err == nil {
		t.Error("unknown fix accepted")
	}
	if app, _ := act.Apply(catalog.FixUpdateStats, "ItemBean"); app != (Application{}) {
		t.Errorf("failed application returned a record: %+v", app)
	}
}

func TestFixesActuallyActOnService(t *testing.T) {
	svc := newService(t)
	act := NewActuator(svc)

	svc.DB.Table("items").StatsStale = true
	svc.DB.Table("items").PlanSlowdown = 7
	act.Apply(catalog.FixUpdateStats, "items")
	if svc.DB.Table("items").StatsStale {
		t.Error("update-statistics did not clear staleness")
	}

	svc.App.EJB("BidBean").Deadlocked = true
	act.Apply(catalog.FixMicrorebootEJB, "BidBean")
	if svc.App.EJB("BidBean").Deadlocked {
		t.Error("microreboot did not clear the deadlock")
	}

	before := svc.App.Nodes
	act.Apply(catalog.FixProvisionTier, "app")
	if svc.App.Nodes <= before {
		t.Error("provisioning did not add nodes")
	}

	act.Apply(catalog.FixRebootDBTier, "")
	if svc.DB.Up() {
		t.Error("db reboot did not take the tier down")
	}
}

func TestValidTarget(t *testing.T) {
	cases := []struct {
		fix    catalog.FixID
		target string
		want   bool
	}{
		{catalog.FixMicrorebootEJB, "ItemBean", true},
		{catalog.FixMicrorebootEJB, "nope", false},
		{catalog.FixUpdateStats, "items", true},
		{catalog.FixUpdateStats, "ItemBean", false},
		{catalog.FixProvisionTier, "db", true},
		{catalog.FixProvisionTier, "disk", false},
		{catalog.FixFullRestart, "", true},
		{catalog.FixFullRestart, "anything", true},
	}
	for _, c := range cases {
		if got := ValidTarget(c.fix, c.target); got != c.want {
			t.Errorf("ValidTarget(%v, %q) = %v want %v", c.fix, c.target, got, c.want)
		}
	}
}
