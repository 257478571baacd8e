package targets

import (
	"fmt"
	"slices"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/faults"
	"selfheal/internal/metrics"
	"selfheal/internal/service"
	"selfheal/internal/trace"
	"selfheal/internal/workload"
)

// AuctionName is the registered kind of the default RUBiS-style target.
const AuctionName = "auction"

// AuctionSpec returns the default target's catalog: the full Table 1
// fault/fix vocabulary over the three-tier auction service.
func AuctionSpec() Spec {
	cands := make(map[catalog.FaultKind][]catalog.FixID)
	for _, k := range catalog.FaultKinds() {
		cands[k] = catalog.CandidateFixes(k)
	}
	tables := service.TableNames()
	costops := Locator{LargestZ, PerTarget(tables, "db.table.", ".costops")}
	return Spec{
		Name:           AuctionName,
		Description:    "RUBiS-style auction service: web + EJB app tier + database (the paper's Example 1)",
		FaultKinds:     catalog.FaultKinds(),
		CandidateFixes: cands,
		Tiers:          catalog.Tiers(),
		SLO:            detect.DefaultSLO(),
		Mixes:          []string{"bidding", "browsing"},
		// A failing EJB's call rate moves either way (a deadlock stalls
		// it, an exception retries it); a table's lock wait or cost per
		// tick rises; the tier to grow is the busiest; the tier to fail
		// over has lost nodes.
		Locators: map[catalog.FixID]Locator{
			catalog.FixMicrorebootEJB:   {LargestAbsZ, PerTarget(service.EJBNames(), "app.ejb.", ".calls")},
			catalog.FixRepartitionTable: {LargestZ, PerTarget(tables, "db.table.", ".lockms")},
			catalog.FixUpdateStats:      costops,
			catalog.FixRebuildIndex:     costops,
			catalog.FixProvisionTier: {HighestLatest, []Candidate{
				{"web", []string{"web.cpu.util"}},
				{"app", []string{"app.cpu.util"}},
				{"db", []string{"db.cpu.util", "db.io.util", "db.conns.util"}},
			}},
			catalog.FixFailoverNode: {LowestZ, PerTarget([]string{"web", "app", "db"}, "", ".nodes.up")},
		},
	}
}

// Auction is the default target: the analytical RUBiS-style simulator of
// internal/service together with its workload generator, the set of
// active Table 1 faults, and the Table 1 fixes. It is a thin adapter — the
// simulator's behavior is unchanged, tick for tick and random draw for
// random draw, from when core.Harness held these components directly.
type Auction struct {
	FaultSet[faults.Fault]
	svc  *service.Service
	gen  *workload.Generator
	spec Spec
}

// auctionSettle is every Table 1 fix's settle time: how long after
// application the service needs before a meaningful success check,
// including any downtime the fix causes — the check-fix delay of Figure
// 3 line 13 ("care should be taken to let the service recover fully",
// §4.1).
var auctionSettle = map[catalog.FixID]int64{
	catalog.FixMicrorebootEJB:    4,
	catalog.FixKillHungQuery:     3,
	catalog.FixRebootWebTier:     26,
	catalog.FixRebootAppTier:     36,
	catalog.FixRebootDBTier:      66,
	catalog.FixUpdateStats:       6,
	catalog.FixRepartitionTable:  12,
	catalog.FixRepartitionMemory: 4,
	catalog.FixProvisionTier:     16,
	catalog.FixRebuildIndex:      22,
	catalog.FixRestoreConfig:     12,
	catalog.FixFailoverNode:      10,
	catalog.FixFullRestart:       126,
	catalog.FixNotifyAdmin:       0,
}

// AuctionValidTarget reports whether target is a sensible argument for
// the fix on the auction target: an EJB for a microreboot, a table for
// the table fixes, a tier for provisioning and failover, anything for the
// fixes that take none. Unknown fixes are invalid.
func AuctionValidTarget(id catalog.FixID, target string) bool {
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

// NewAuction builds the default target at cfg. The service's internal
// seed is derived as seed*7919+17, matching what the facade always did.
func NewAuction(cfg Config) (*Auction, error) {
	spec := AuctionSpec()
	if !spec.ValidMix(cfg.Mix) {
		return nil, fmt.Errorf("targets: auction target has no workload mix %q (mixes: %v)", cfg.Mix, spec.Mixes)
	}
	scfg := service.DefaultConfig()
	scfg.Seed = cfg.Seed*7919 + 17
	mix := workload.BiddingMix()
	if cfg.Mix == "browsing" {
		mix = workload.BrowsingMix()
	}
	return NewAuctionWith(scfg, mix, cfg.Seed), nil
}

// NewAuctionWith builds the default target from explicit simulator
// configuration — the constructor behind core.NewHarness, which keeps the
// service's default seed and seeds only the workload.
func NewAuctionWith(scfg service.Config, mix workload.Mix, seed int64) *Auction {
	svc := service.New(scfg)
	gen := workload.NewGenerator(mix, seed)
	env := &faults.Env{Svc: svc, Gen: gen}
	return &Auction{
		FaultSet: NewFaultSet(AuctionName,
			func(f faults.Fault) error { f.Inject(env); return nil },
			func(f faults.Fault) error { f.Clear(env); return nil },
			func(f faults.Fault) bool { return f.Cleared(env) }),
		svc:  svc,
		gen:  gen,
		spec: AuctionSpec(),
	}
}

// Workload exposes the workload generator, for tests that inspect its
// state (live surges) directly.
func (a *Auction) Workload() *workload.Generator { return a.gen }

// Spec implements Target.
func (a *Auction) Spec() Spec { return a.spec }

// Now implements Target.
func (a *Auction) Now() int64 { return a.svc.Now() }

// Tick implements Target: workload arrives and the service processes it.
func (a *Auction) Tick() detect.Sample {
	st := a.svc.Tick(a.gen.Arrivals(a.svc.Now()))
	return detect.Sample{
		Arrivals:      st.Arrivals,
		Errors:        st.Errors,
		AvgLatencyMS:  st.AvgLatencyMS,
		SLOViolations: st.SLOViolations,
		Down:          st.Down,
	}
}

// Sources implements Target.
func (a *Auction) Sources() []metrics.Source { return []metrics.Source{a.svc} }

// CallMatrix implements Target.
func (a *Auction) CallMatrix() [][]float64 { return a.svc.CallMatrix() }

// CallMatrixRows implements Target.
func (a *Auction) CallMatrixRows() int { return a.svc.CallMatrixRows() }

// CallMatrixSupport implements CallMatrixSupporter: the service's resolved
// call topology is fixed for its lifetime.
func (a *Auction) CallMatrixSupport() [][2]int { return a.svc.CallMatrixSupport() }

// CallCallees implements Target.
func (a *Auction) CallCallees() []string { return service.EJBNames() }

// SamplePaths implements Target: per class, weighted toward the busier
// classes so failure-path inference sees a realistic traffic mix.
func (a *Auction) SamplePaths() []trace.Path {
	sampler := trace.NewSampler(a.svc, a.svc.Now()^0x5eed)
	var paths []trace.Path
	rates := a.gen.Rates(a.svc.Now())
	for c := 0; c < service.NumClasses(); c++ {
		n := 4
		if c < len(rates) && rates[c] > 20 {
			n = 10
		}
		if c < len(rates) && rates[c] <= 0 {
			continue
		}
		for i := 0; i < n; i++ {
			paths = append(paths, sampler.Sample(c))
		}
	}
	return paths
}

// Apply implements Target: the fix's recovery action on the service, and
// its settle time. A learned or diagnosed recommendation can carry a
// target of the wrong kind (a table name for a component fix); that is an
// error — a failed attempt — with no effect on the service.
func (a *Auction) Apply(act Action) (int64, error) {
	if !AuctionValidTarget(act.Fix, act.Target) {
		return 0, fmt.Errorf("targets: auction cannot apply %v to %q", act.Fix, act.Target)
	}
	svc := a.svc
	switch act.Fix {
	case catalog.FixMicrorebootEJB:
		svc.MicrorebootEJB(act.Target)
	case catalog.FixKillHungQuery:
		svc.KillHungQuery()
	case catalog.FixRebootWebTier:
		svc.RebootTier(catalog.TierWeb)
	case catalog.FixRebootAppTier:
		svc.RebootTier(catalog.TierApp)
	case catalog.FixRebootDBTier:
		svc.RebootTier(catalog.TierDB)
	case catalog.FixUpdateStats:
		svc.UpdateStats(act.Target)
	case catalog.FixRepartitionTable:
		svc.RepartitionTable(act.Target)
	case catalog.FixRepartitionMemory:
		svc.RepartitionMemory()
	case catalog.FixProvisionTier:
		tier, _ := catalog.ParseTier(act.Target)
		svc.ProvisionTier(tier)
	case catalog.FixRebuildIndex:
		svc.RebuildIndex(act.Target)
	case catalog.FixRestoreConfig:
		svc.RestoreConfig()
	case catalog.FixFailoverNode:
		tier, _ := catalog.ParseTier(act.Target)
		svc.FailoverNode(tier)
	case catalog.FixFullRestart:
		svc.FullRestart()
	case catalog.FixNotifyAdmin:
		// No service effect; the healing loop models the human response.
	}
	return auctionSettle[act.Fix], nil
}

// NewFaults implements Target: the Table 1 generator, validated against
// the target's own spec (the Target contract).
func (a *Auction) NewFaults(seed int64, kinds ...catalog.FaultKind) (FaultGen, error) {
	if err := a.Spec().ValidateKinds(kinds); err != nil {
		return nil, err
	}
	return simFaultGen{faults.NewGenerator(seed, kinds...)}, nil
}

// simFaultGen adapts *faults.Generator to the target-agnostic FaultGen.
type simFaultGen struct{ g *faults.Generator }

func (s simFaultGen) Next() Fault { return s.g.Next() }

// --- Optional capabilities ------------------------------------------------

// SetLoadScale implements WorkloadShaper.
func (a *Auction) SetLoadScale(f float64) { a.gen.SetScale(f) }

// EnableDiurnal implements WorkloadShaper.
func (a *Auction) EnableDiurnal() { a.gen.EnableDiurnal() }

// SetLoadDrift implements WorkloadShaper.
func (a *Auction) SetLoadDrift(perTick float64) { a.gen.SetDrift(perTick) }

// AddLoadSurge implements WorkloadShaper.
func (a *Auction) AddLoadSurge(start, end int64, factor float64) {
	a.gen.AddSurge(workload.Surge{Start: start, End: end, Factor: factor})
}

// auctionTier resolves a scenario component naming a tier; the app tier
// is the default because it is where most Table 1 faults land.
func auctionTier(component string) (catalog.Tier, error) {
	if component == "" {
		return catalog.TierApp, nil
	}
	return catalog.ParseTier(component)
}

// MakeFault implements FaultMaker: deterministic construction of any
// Table 1 fault from a scenario spec. Magnitude maps to each kind's main
// severity knob (error rate, leak level/tick, plan slowdown, surge
// factor, ...); zero picks a fixed mid-range default inside the same
// band the random campaign generator draws from, so scripted faults are
// neither stronger nor weaker than campaign ones.
func (a *Auction) MakeFault(kind catalog.FaultKind, component string, magnitude float64, duration int64) (Fault, error) {
	comp := func(def string) string {
		if component == "" {
			return def
		}
		return component
	}
	mag := func(def float64) float64 {
		if magnitude == 0 {
			return def
		}
		return magnitude
	}
	if duration == 0 {
		duration = 1200
	}
	switch kind {
	case catalog.FaultDeadlock:
		return faults.NewDeadlock(comp("ItemBean")), nil
	case catalog.FaultException:
		return faults.NewException(comp("ItemBean"), mag(0.6)), nil
	case catalog.FaultAging:
		tier, err := auctionTier(component)
		if err != nil {
			return nil, err
		}
		return faults.NewAging(tier, mag(0.008)), nil
	case catalog.FaultStaleStats:
		return faults.NewStaleStats(comp("items"), mag(9)), nil
	case catalog.FaultBlockContention:
		return faults.NewBlockContention(comp("items"), mag(250)), nil
	case catalog.FaultBufferContention:
		return faults.NewBufferContention(mag(0.75)), nil
	case catalog.FaultBottleneck:
		tier, err := auctionTier(component)
		if err != nil {
			return nil, err
		}
		def := map[catalog.Tier]float64{catalog.TierWeb: 6, catalog.TierApp: 7, catalog.TierDB: 3.7}[tier]
		return faults.NewBottleneck(tier, mag(def), duration), nil
	case catalog.FaultCodeBug:
		return faults.NewCodeBug(comp("ItemBean"), mag(0.55)), nil
	case catalog.FaultOperatorConfig:
		knobs := map[string]service.OperatorKnob{
			"thread-pool": service.KnobSmallThreadPool,
			"conn-pool":   service.KnobSmallConnPool,
			"routing":     service.KnobRoutingSkew,
			"index":       service.KnobDroppedIndex,
			"buffer":      service.KnobSmallBuffer,
		}
		knob, ok := knobs[comp("conn-pool")]
		if !ok {
			return nil, fmt.Errorf("targets: auction operator-misconfiguration component %q (want thread-pool, conn-pool, routing, index or buffer)", component)
		}
		target := ""
		if knob == service.KnobDroppedIndex {
			target = "items"
		}
		return faults.NewOperatorConfig(knob, target, mag(0.85)), nil
	case catalog.FaultHardware:
		tier, err := auctionTier(component)
		if err != nil {
			return nil, err
		}
		nodes := int(mag(1))
		if tier == catalog.TierApp && magnitude == 0 {
			nodes = 2
		}
		return faults.NewHardware(tier, nodes), nil
	case catalog.FaultNetwork:
		return faults.NewNetwork(mag(130), 0), nil
	default:
		return nil, fmt.Errorf("targets: auction target cannot make a %v fault", kind)
	}
}
