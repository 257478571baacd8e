package service_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/faults"
	"selfheal/internal/service"
	"selfheal/internal/workload"
)

// twin is one of the two services TestTickTermsMatchRebuiltEveryTick
// drives, with its own same-seed workload generator so offered-load faults
// surge both alike.
type twin struct {
	svc *service.Service
	env *faults.Env
}

func newTwin() twin {
	cfg := service.DefaultConfig()
	cfg.Seed = 5
	svc := service.New(cfg)
	return twin{svc, &faults.Env{Svc: svc, Gen: workload.NewGenerator(workload.BiddingMix(), 11)}}
}

// sameStats compares two TickStats field by field, floats by their bits.
func sameStats(a, b service.TickStats) error {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb, name := va.Field(i), vb.Field(i), va.Type().Field(i).Name
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return fmt.Errorf("%s: %v vs %v", name, fa.Float(), fb.Float())
			}
		case reflect.Slice:
			x, y := fa.Interface().([]float64), fb.Interface().([]float64)
			if !service.SameBits([][]float64{x}, [][]float64{y}) {
				return fmt.Errorf("%s: %v vs %v", name, x, y)
			}
		default:
			if fa.Interface() != fb.Interface() {
				return fmt.Errorf("%s: %v vs %v", name, fa.Interface(), fb.Interface())
			}
		}
	}
	return nil
}

// termsScript is what TestTickTermsMatchRebuiltEveryTick does to both
// services before a tick: every auction fault kind injected, a Table 1
// fix applied 20 ticks later and the fault withdrawn 20 ticks after that;
// an out-of-memory crash; a microreboot timer; and each keyed field
// written directly, as internal/faults writes them, one at a time, some
// drifting every tick and one set to NaN.
func termsScript() map[int][]func(t twin) {
	script := map[int][]func(t twin){}
	at := func(tick int, do func(t twin)) { script[tick] = append(script[tick], do) }
	type episode struct {
		fault func() faults.Fault
		fix   func(s *service.Service)
	}
	episodes := []episode{
		{func() faults.Fault { return faults.NewDeadlock("ItemBean") }, func(s *service.Service) { s.MicrorebootEJB("ItemBean") }},
		{func() faults.Fault { return faults.NewDeadlock("BidBean") }, func(s *service.Service) { s.KillHungQuery() }},
		{func() faults.Fault { return faults.NewException("BidBean", 0.3) }, func(s *service.Service) { s.RebootTier(catalog.TierApp) }},
		{func() faults.Fault { return faults.NewAging(catalog.TierWeb, 0.01) }, func(s *service.Service) { s.RebootTier(catalog.TierWeb) }},
		{func() faults.Fault { return faults.NewStaleStats("items", 9) }, func(s *service.Service) { s.UpdateStats("items") }},
		{func() faults.Fault { return faults.NewBlockContention("bids", 250) }, func(s *service.Service) { s.RepartitionTable("bids") }},
		{func() faults.Fault { return faults.NewBufferContention(0.75) }, func(s *service.Service) { s.RepartitionMemory() }},
		{func() faults.Fault { return faults.NewBottleneck(catalog.TierDB, 3.7, 200) }, func(s *service.Service) { s.ProvisionTier(catalog.TierDB) }},
		{func() faults.Fault { return faults.NewCodeBug("UserBean", 0.55) }, func(s *service.Service) { s.RebootTier(catalog.TierDB) }},
		{func() faults.Fault { return faults.NewOperatorConfig(service.KnobDroppedIndex, "items", 0.85) }, func(s *service.Service) { s.RebuildIndex("items") }},
		{func() faults.Fault { return faults.NewOperatorConfig(service.KnobSmallThreadPool, "", 0.85) }, func(s *service.Service) { s.RestoreConfig() }},
		{func() faults.Fault { return faults.NewOperatorConfig(service.KnobSmallConnPool, "", 0.85) }, nil},
		{func() faults.Fault { return faults.NewOperatorConfig(service.KnobRoutingSkew, "", 0.85) }, nil},
		{func() faults.Fault { return faults.NewOperatorConfig(service.KnobSmallBuffer, "", 0.85) }, nil},
		{func() faults.Fault { return faults.NewHardware(catalog.TierApp, 2) }, func(s *service.Service) { s.FailoverNode(catalog.TierApp) }},
		// The leak fills the heap in about 40 ticks: an out-of-memory crash.
		{func() faults.Fault { return faults.NewAging(catalog.TierApp, 0.02) }, nil},
		{func() faults.Fault { return faults.NewNetwork(130, 0.05) }, func(s *service.Service) { s.FullRestart() }},
	}
	for i, ep := range episodes {
		start := 30 + 60*i
		made := map[*service.Service]faults.Fault{}
		at(start, func(t twin) { made[t.svc] = ep.fault(); made[t.svc].Inject(t.env) })
		if ep.fix != nil {
			at(start+20, func(t twin) { ep.fix(t.svc) })
		}
		at(start+40, func(t twin) { made[t.svc].Clear(t.env) })
	}
	// The full restart leaves the service down for 120 ticks; the direct
	// writes start after it.
	start := 30 + 60*len(episodes) + 100
	writes := []func(s *service.Service, k int){
		func(s *service.Service, k int) { s.App.EJB("QueryBean").ErrorRate = 0.01 * float64(k) },
		func(s *service.Service, k int) { s.App.EJB("QueryBean").BugErrorRate = 0.02 * float64(k) },
		func(s *service.Service, k int) { s.App.EJB("QueryBean").RebootTicks = int64(k % 3) },
		func(s *service.Service, k int) { s.App.EJB("CommentBean").Deadlocked = k%2 == 1 },
		func(s *service.Service, k int) { s.DB.Table("users").IndexDropped = k%2 == 1 },
		func(s *service.Service, k int) {
			// Only the flag moves once the slowdown is set.
			s.DB.Table("users").StatsStale = k%2 == 1
			s.DB.Table("users").PlanSlowdown = map[bool]float64{true: 4, false: 1}[k > 0]
		},
		func(s *service.Service, k int) {
			s.DB.Table("users").StatsStale = k > 0
			s.DB.Table("users").PlanSlowdown = 1 + float64(k)
		},
		func(s *service.Service, k int) { s.DB.Table("comments").Contention = 40 * float64(k) },
		func(s *service.Service, k int) { s.Web.OpsPerNode = 170 + 5*float64(k) },
		func(s *service.Service, k int) { s.App.OpsPerNode = 280 + 7*float64(k) },
		func(s *service.Service, k int) { s.DB.OpsPerNode = 330 + 9*float64(k) },
		func(s *service.Service, k int) { s.DB.Buffer.EffectiveMB = 640 - 60*float64(k) },
		func(s *service.Service, k int) {
			s.DB.Table("regions").StatsStale = k > 0
			s.DB.Table("regions").PlanSlowdown = map[bool]float64{true: math.NaN(), false: 1}[k > 0]
		},
	}
	for i, write := range writes {
		first := start + 30*i
		// Set on the first tick, drift for four ticks, hold for ten, then
		// restore.
		for k := 1; k <= 5; k++ {
			at(first+k-1, func(t twin) { write(t.svc, k) })
		}
		at(first+15, func(t twin) { write(t.svc, 0) })
	}
	return script
}

// TestTickTermsMatchRebuiltEveryTick drives two same-seed services through
// the same script and arrivals. One keeps its tick terms while the keyed
// state stays the same; the other rebuilds them before every tick. On every
// tick their TickStats, metric rows and call matrices must agree bit for
// bit — with a class that has no arrivals every seventh tick.
func TestTickTermsMatchRebuiltEveryTick(t *testing.T) {
	kept, fresh := newTwin(), newTwin()
	script := termsScript()
	last := 0
	for tick := range script {
		last = max(last, tick)
	}
	rowK := make([]float64, len(kept.svc.MetricNames()))
	rowF := make([]float64, len(rowK))
	var down, idle, crashed int
	for tick := 0; tick <= last+30; tick++ {
		for _, do := range script[tick] {
			do(kept)
			do(fresh)
		}
		arrK := kept.env.Gen.Arrivals(kept.svc.Now())
		arrF := fresh.env.Gen.Arrivals(fresh.svc.Now())
		if !service.SameBits([][]float64{arrK}, [][]float64{arrF}) {
			t.Fatalf("tick %d: the twins' arrivals differ: %v vs %v", tick, arrK, arrF)
		}
		if tick%7 == 0 {
			arrK[2], arrF[2] = 0, 0
			idle++
		}
		fresh.svc.ForgetTickTerms()
		stK, stF := kept.svc.Tick(arrK), fresh.svc.Tick(arrF)
		if err := sameStats(stK, stF); err != nil {
			t.Fatalf("tick %d: tick stats differ: %v", tick, err)
		}
		if stK.Down {
			down++
		}
		if kept.svc.App.Crashed {
			crashed++
		}
		kept.svc.ReadMetrics(rowK)
		fresh.svc.ReadMetrics(rowF)
		if !service.SameBits([][]float64{rowK}, [][]float64{rowF}) {
			for i := range rowK {
				if math.Float64bits(rowK[i]) != math.Float64bits(rowF[i]) {
					t.Fatalf("tick %d: metric %s reads %v kept, %v rebuilt", tick, kept.svc.MetricNames()[i], rowK[i], rowF[i])
				}
			}
		}
		if !service.SameBits(kept.svc.CallMatrix(), fresh.svc.CallMatrix()) {
			t.Fatalf("tick %d: call matrices differ", tick)
		}
	}
	if down < 90 || crashed == 0 || idle == 0 {
		t.Fatalf("%d outage ticks, %d after a crash and %d idle-class ticks: the script misses a case", down, crashed, idle)
	}
}
