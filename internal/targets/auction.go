package targets

import (
	"fmt"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/faults"
	"selfheal/internal/fixes"
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
	return Spec{
		Name:           AuctionName,
		Description:    "RUBiS-style auction service: web + EJB app tier + database (the paper's Example 1)",
		FaultKinds:     catalog.FaultKinds(),
		CandidateFixes: cands,
		Tiers:          catalog.Tiers(),
		SLO:            detect.DefaultSLO(),
		Mixes:          []string{"bidding", "browsing"},
	}
}

// Auction is the default target: the analytical RUBiS-style simulator of
// internal/service together with its workload generator, the set of
// active Table 1 faults, and the fix actuator. It is a thin adapter — the
// simulator's behavior is unchanged, tick for tick and random draw for
// random draw, from when core.Harness held these components directly.
type Auction struct {
	FaultSet[faults.Fault]
	svc  *service.Service
	gen  *workload.Generator
	act  *fixes.Actuator
	spec Spec
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
// configuration — the constructor behind core.NewHarness, whose config
// sizes the service and workload directly.
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
		act:  fixes.NewActuator(svc),
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

// Apply implements Target.
func (a *Auction) Apply(act Action) (int64, error) {
	app, err := a.act.Apply(act.Fix, act.Target)
	if err != nil {
		return 0, err
	}
	return app.SettleTicks, nil
}

// NewFaults implements Target: the Table 1 generator, validated against
// the target's own spec (the Target contract) — faults.NewGenerator's
// catalog check then never fires.
func (a *Auction) NewFaults(seed int64, kinds ...catalog.FaultKind) (FaultGen, error) {
	if err := a.Spec().ValidateKinds(kinds); err != nil {
		return nil, err
	}
	g, err := faults.NewGenerator(seed, kinds...)
	if err != nil {
		return nil, err
	}
	return simFaultGen{g}, nil
}

// simFaultGen adapts *faults.Generator to the target-agnostic FaultGen.
type simFaultGen struct{ g *faults.Generator }

func (s simFaultGen) Next() Fault                { return s.g.Next() }
func (s simFaultGen) Kinds() []catalog.FaultKind { return s.g.Kinds() }

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
