package faults

import (
	"testing"
	"testing/quick"

	"selfheal/internal/catalog"
	"selfheal/internal/service"
	"selfheal/internal/workload"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	env := &Env{
		Svc: service.New(service.DefaultConfig()),
		Gen: workload.NewGenerator(workload.BiddingMix(), 3),
	}
	// Warm the service so Last() is meaningful.
	for i := 0; i < 50; i++ {
		env.Svc.Tick(env.Gen.Arrivals(env.Svc.Now()))
	}
	return env
}

// applyCorrectFix performs the fault's own ground-truth fix via the service
// methods (mirroring what targets.Auction.Apply does).
func applyCorrectFix(env *Env, f Fault) {
	fix, target := f.CorrectFix()
	svc := env.Svc
	switch fix {
	case catalog.FixMicrorebootEJB:
		svc.MicrorebootEJB(target)
	case catalog.FixRebootWebTier:
		svc.RebootTier(catalog.TierWeb)
	case catalog.FixRebootAppTier:
		svc.RebootTier(catalog.TierApp)
	case catalog.FixRebootDBTier:
		svc.RebootTier(catalog.TierDB)
	case catalog.FixUpdateStats:
		svc.UpdateStats(target)
	case catalog.FixRepartitionTable:
		svc.RepartitionTable(target)
	case catalog.FixRepartitionMemory:
		svc.RepartitionMemory()
	case catalog.FixProvisionTier:
		svc.ProvisionTier(tierOf(target))
	case catalog.FixRestoreConfig:
		svc.RestoreConfig()
	case catalog.FixFailoverNode:
		svc.FailoverNode(tierOf(target))
	}
}

func tierOf(name string) catalog.Tier {
	switch name {
	case "web":
		return catalog.TierWeb
	case "db":
		return catalog.TierDB
	default:
		return catalog.TierApp
	}
}

// TestEveryKindInjectsAndClears checks the full lifecycle for every fault
// kind: after injection the fault is live; after its own correct fix it
// reports cleared.
func TestEveryKindInjectsAndClears(t *testing.T) {
	gen := NewGenerator(5)
	for _, kind := range catalog.FaultKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			env := newEnv(t)
			f := gen.NextOfKind(kind)
			f.Inject(env)
			// A few ticks so surges and leaks take hold.
			for i := 0; i < 5; i++ {
				env.Svc.Tick(env.Gen.Arrivals(env.Svc.Now()))
			}
			if kind != catalog.FaultBottleneck && f.Cleared(env) {
				t.Fatalf("%v cleared immediately after injection", kind)
			}
			applyCorrectFix(env, f)
			// Let reboots complete and utilization settle.
			for i := 0; i < 80; i++ {
				env.Svc.Tick(env.Gen.Arrivals(env.Svc.Now()))
			}
			if !f.Cleared(env) {
				t.Fatalf("%v not cleared by its own correct fix", kind)
			}
		})
	}
}

func TestCodeBugSurvivesMicroreboot(t *testing.T) {
	env := newEnv(t)
	f := NewCodeBug("ItemBean", 0.5)
	f.Inject(env)
	env.Svc.MicrorebootEJB("ItemBean")
	for i := 0; i < 5; i++ {
		env.Svc.Tick(env.Gen.Arrivals(env.Svc.Now()))
	}
	if f.Cleared(env) {
		t.Fatal("microreboot cleared a source-code bug")
	}
	env.Svc.RebootTier(catalog.TierApp)
	if !f.Cleared(env) {
		t.Fatal("tier reboot did not mask the bug")
	}
}

func TestDeadlockSurvivesTierReboot(t *testing.T) {
	env := newEnv(t)
	f := NewDeadlock("ItemBean")
	f.Inject(env)
	env.Svc.RebootTier(catalog.TierApp)
	if f.Cleared(env) {
		t.Fatal("tier reboot cleared a deadlock; only microreboot should")
	}
	env.Svc.MicrorebootEJB("ItemBean")
	if !f.Cleared(env) {
		t.Fatal("microreboot did not clear the deadlock")
	}
}

func TestBottleneckClearsWhenSurgeEnds(t *testing.T) {
	env := newEnv(t)
	f := NewBottleneck(catalog.TierDB, 3.7, 30)
	f.Inject(env)
	for i := 0; i < 10; i++ {
		env.Svc.Tick(env.Gen.Arrivals(env.Svc.Now()))
	}
	if f.Cleared(env) {
		t.Fatal("bottleneck cleared mid-surge without provisioning")
	}
	for i := 0; i < 40; i++ {
		env.Svc.Tick(env.Gen.Arrivals(env.Svc.Now()))
	}
	if !f.Cleared(env) {
		t.Fatal("bottleneck not cleared after surge expiry")
	}
}

// Property: every generated fault has a valid kind, a cause, and a correct
// fix drawn from the kind's Table 1 candidates.
func TestQuickGeneratorWellFormed(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed int64) bool {
		g := NewGenerator(seed)
		f := g.Next()
		fix, _ := f.CorrectFix()
		candidates := catalog.CandidateFixes(f.Kind())
		found := false
		for _, c := range candidates {
			if c == fix {
				found = true
			}
		}
		return found && f.Kind() != catalog.FaultNone
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestGeneratorWeights(t *testing.T) {
	g := NewGenerator(3, catalog.FaultDeadlock, catalog.FaultStaleStats)
	g.SetWeights([]float64{0, 1})
	for i := 0; i < 50; i++ {
		if g.Next().Kind() != catalog.FaultStaleStats {
			t.Fatal("zero-weight kind generated")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched weights did not panic")
		}
	}()
	g.SetWeights([]float64{1})
}
