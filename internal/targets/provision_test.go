package targets

import (
	"math"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/service"
)

// provisions is how many provision-tier fixes each tier takes below: far
// past the ≈100 compounding steps that would overflow an int64 unbounded.
const provisions = 10000

// TestAuctionProvisioningIsBounded: ten thousand provisions of every tier,
// each sized against a saturated utilisation reading, leave every node
// count positive and at most service.MaxProvisionGrowth times its
// configured size (reached, not just approached), the database's disks and
// connection slots bounded the same way, and every utilisation the next
// tick reads finite.
func TestAuctionProvisioningIsBounded(t *testing.T) {
	a, err := NewAuction(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.svc.Config()
	a.SetLoadScale(1e6)
	a.Tick()
	last := a.svc.Last()
	if !(last.WebUtil > 1 && last.AppUtil > 1 && last.DBCPUUtil > 1) {
		t.Fatalf("the load did not saturate every tier: %+v", last)
	}
	configured := map[catalog.Tier]int{catalog.TierWeb: cfg.WebNodes, catalog.TierApp: cfg.AppNodes, catalog.TierDB: cfg.DBNodes}
	for tier, n := range configured {
		limit := n * service.MaxProvisionGrowth
		for i := 0; i < provisions; i++ {
			if _, err := a.Apply(Action{Fix: catalog.FixProvisionTier, Target: tier.String()}); err != nil {
				t.Fatal(err)
			}
			if nodes := a.svc.Tier(tier).Nodes; nodes <= 0 || nodes > limit {
				t.Fatalf("%v after %d provisions: %d nodes, want 1..%d", tier, i+1, nodes, limit)
			}
		}
		if nodes := a.svc.Tier(tier).Nodes; nodes != limit {
			t.Errorf("%v stopped at %d nodes, short of its bound %d", tier, nodes, limit)
		}
	}
	if c := a.svc.DB.Connections; c <= 0 || c > cfg.DBConnections*service.MaxProvisionGrowth {
		t.Errorf("%d database connections, want 1..%d", c, cfg.DBConnections*service.MaxProvisionGrowth)
	}
	if io := a.svc.DB.IOOpsPerSec; !(io > 0 && io <= cfg.IOOpsPerSec*service.MaxProvisionGrowth) {
		t.Errorf("database disks at %v ops/s, want (0, %v]", io, cfg.IOOpsPerSec*service.MaxProvisionGrowth)
	}
	s := a.Tick()
	last = a.svc.Last()
	for name, u := range map[string]float64{
		"web": last.WebUtil, "app": last.AppUtil, "db cpu": last.DBCPUUtil, "db io": last.DBIOUtil,
		"threads": last.ThreadUtil, "connections": last.ConnUtil, "latency": s.AvgLatencyMS,
	} {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Errorf("%s reads %v after the provisions", name, u)
		}
	}
}

// TestReplicatedProvisioningIsBounded: the same on the replicated engine,
// whose database grows by a capacity multiplier and whose app replicas by
// their capacity: both stop at service.MaxProvisionGrowth times configured.
func TestReplicatedProvisioningIsBounded(t *testing.T) {
	r, err := NewReplicated(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoadScale(1e6)
	r.Tick()
	if !(r.last.dbUtil > 1) {
		t.Fatalf("the load did not saturate the database: utilisation %v", r.last.dbUtil)
	}
	for _, tier := range []string{"db", "app"} {
		for i := 0; i < provisions; i++ {
			if _, err := r.Apply(Action{Fix: catalog.FixProvisionTier, Target: tier}); err != nil {
				t.Fatal(err)
			}
			if !(r.dbCapBoost >= 1 && r.dbCapBoost <= service.MaxProvisionGrowth) {
				t.Fatalf("%s after %d provisions: database boost %v, want 1..%v", tier, i+1, r.dbCapBoost, float64(service.MaxProvisionGrowth))
			}
			for _, rep := range r.replicas {
				if !(rep.cap > 0 && rep.cap <= replAppCap*service.MaxProvisionGrowth) {
					t.Fatalf("%s after %d provisions: %s capacity %v, want (0, %v]", tier, i+1, rep.name, rep.cap, replAppCap*service.MaxProvisionGrowth)
				}
			}
		}
	}
	if r.dbCapBoost != service.MaxProvisionGrowth {
		t.Errorf("database boost stopped at %v, short of its bound", r.dbCapBoost)
	}
	for _, rep := range r.replicas {
		if rep.cap != replAppCap*service.MaxProvisionGrowth {
			t.Errorf("%s capacity stopped at %v, short of its bound", rep.name, rep.cap)
		}
	}
	s := r.Tick()
	for name, u := range map[string]float64{
		"web": r.last.webUtil, "db": r.last.dbUtil, "app-0": r.last.replicaUtil[0], "app-1": r.last.replicaUtil[1], "latency": s.AvgLatencyMS,
	} {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Errorf("%s reads %v after the provisions", name, u)
		}
	}
}
