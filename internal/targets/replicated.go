package targets

import (
	"fmt"
	"math"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/metrics"
	"selfheal/internal/service"
	"selfheal/internal/sim"
	"selfheal/internal/trace"
	"selfheal/internal/workload"
)

// ReplicatedName is the registered kind of the replicated-topology target.
const ReplicatedName = "replicated"

// The replicated topology: one load-balancing web node in front of two
// application replicas, backed by a primary/standby database pair. The
// interesting failures are *replica-partial* — one replica of a tier
// misbehaves while its peer stays healthy — and the interesting fixes are
// routing and membership changes (rebalance the balancer, fail over to
// the standby, replace a node) rather than the single-image reboots of
// the auction service. The load balancer health-checks its replicas and
// routes around a dead one after a short lag, so a replica loss degrades
// into survivor overload instead of a clean outage — the ambiguous
// symptom signature that makes these episodes genuinely new to a
// knowledge base trained on the auction target.

// replicated class definitions: per-class offered rate and per-request
// demand on each tier (in that tier's capacity units).
type replClass struct {
	name   string
	webOps float64
	appOps float64
	dbOps  float64
}

// The demand profile is sized so the pair of app replicas runs near 60%
// utilization at the balanced mix — losing one replica pushes the
// survivor past saturation, keeping replica-partial faults SLO-visible
// until a failover fix lands — while Search is database-heavy enough
// that a search surge bottlenecks the DB without drowning the app tier.
var replClasses = []replClass{
	{name: "Read", webOps: 1.0, appOps: 1.2, dbOps: 0.5},
	{name: "Write", webOps: 1.1, appOps: 2.0, dbOps: 1.5},
	{name: "Search", webOps: 1.0, appOps: 1.0, dbOps: 3.0},
}

// replMixes maps workload mix names to per-class base rates (req/s),
// aligned with replClasses.
var replMixes = map[string][]float64{
	"balanced":  {90, 30, 20},
	"readheavy": {130, 10, 22},
}

// replDriftDirs is where workload drift takes each class, aligned with
// replClasses: Read and Search grow, Write shrinks.
var replDriftDirs = []int8{1, -1, 1}

const (
	replWebCap      = 350.0 // web-node ops/s
	replAppCap      = 160.0 // per app replica ops/s
	replPrimaryCap  = 260.0 // primary DB ops/s
	replStandbyCap  = 230.0 // standby DB ops/s (slightly weaker box)
	replWebMSPerOp  = 2.0
	replAppMSPerOp  = 12.0
	replDBMSPerOp   = 10.0
	replTimeoutMS   = 8000.0
	replSLOLatMS    = 250.0
	replNoiseFrac   = 0.03
	replLBLagTicks  = 3  // health-check lag before rotation changes
	replCrashTicks  = 60 // downtime after an aging crash
	replRebootTicks = 25 // planned replica reboot downtime
	replSwitchTicks = 6  // db failover switchover outage
)

// replicaNames in rotation order; these are also fix targets.
func replicaNames() []string { return []string{"app-0", "app-1"} }

// ReplicatedSpec returns the replicated target's catalog: the
// replica-partial fault kinds and their rebalance/failover candidate
// fixes.
func ReplicatedSpec() Spec {
	return Spec{
		Name:        ReplicatedName,
		Description: "replicated three-tier topology: 1 web LB + 2 app replicas + primary/standby DB with failover routing",
		FaultKinds: []catalog.FaultKind{
			catalog.FaultException,
			catalog.FaultAging,
			catalog.FaultBottleneck,
			catalog.FaultOperatorConfig,
			catalog.FaultHardware,
		},
		CandidateFixes: map[catalog.FaultKind][]catalog.FixID{
			catalog.FaultException:      {catalog.FixRebootAppTier, catalog.FixFailoverNode},
			catalog.FaultAging:          {catalog.FixRebootAppTier, catalog.FixFailoverNode},
			catalog.FaultBottleneck:     {catalog.FixProvisionTier},
			catalog.FaultOperatorConfig: {catalog.FixRestoreConfig, catalog.FixNotifyAdmin},
			catalog.FaultHardware:       {catalog.FixFailoverNode, catalog.FixNotifyAdmin},
		},
		Tiers: catalog.Tiers(),
		SLO:   detect.SLO{MaxAvgLatencyMS: 250, MaxErrorRate: 0.02, MaxViolationShare: 0.08},
		Mixes: []string{"balanced", "readheavy"},
		// The node to fail over is a replica that went down or a primary
		// that lost capacity; the replica to reboot leaks or errs; the
		// tier to grow is the busiest.
		Locators: map[catalog.FixID]Locator{
			catalog.FixFailoverNode: {LowestZ, append(PerTarget(replicaNames(), "app.replica.", ".up"),
				Candidate{"db", []string{"db.primary.capfactor"}})},
			catalog.FixRebootAppTier: {LargestZ, []Candidate{
				{"app-0", []string{"app.replica.app-0.leak", "app.replica.app-0.errorrate"}},
				{"app-1", []string{"app.replica.app-1.leak", "app.replica.app-1.errorrate"}},
			}},
			catalog.FixProvisionTier: {HighestLatest, PerTarget([]string{"app", "db"}, "", ".cpu.util")},
		},
	}
}

// appReplica is one application replica's mutable state.
type appReplica struct {
	name        string
	cap         float64
	down        bool    // not serving (crash, pulled node, reboot)
	rebootTicks int64   // remaining planned/crash downtime
	errorRate   float64 // bad-deploy fail-fast fraction
	leakRate    float64 // aging level per tick
	leakLevel   float64 // 0 fresh .. 1 crash
	markedOut   bool    // LB has taken it out of rotation
	downFor     int64   // consecutive ticks observed down (LB view)
	upFor       int64   // consecutive ticks observed up (LB view)
}

// capacityFactor mirrors the auction simulator's aging degradation.
func (a *appReplica) capacityFactor() float64 {
	f := 1 - 0.6*a.leakLevel
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// replTick is the per-tick snapshot the metric source reads.
type replTick struct {
	arrivals, served, errors float64
	avgLatMS                 float64
	sloViolations            float64
	down                     bool
	webUtil, dbUtil          float64
	replicaUtil              [2]float64
	classRate                []float64
	classLatMS               []float64
}

// Replicated is the replicated-topology target.
type Replicated struct {
	FaultSet[replFault]
	spec Spec
	rng  *sim.RNG
	now  int64

	mixName   string
	baseRates []float64

	// surge models the bottleneck fault's offered-load component.
	surgeFactor float64
	surgeClass  int
	surgeUntil  int64

	// load shapes the base mix (the WorkloadShaper capability).
	load workload.Shaper

	weights  [2]float64
	replicas [2]*appReplica

	primaryCapFactor float64 // hardware degradation of the primary
	usingStandby     bool
	switchTicks      int64   // remaining failover switchover outage
	dbCapBoost       float64 // provisioning multiplier

	globalDownTicks int64 // full-restart outage

	callMatrix  [][]float64
	last        replTick
	metricNames []string
	// Per-tick scratch Tick fills and keeps no reference to.
	ratesBuf, arrivalsBuf []float64
}

// NewReplicated builds the replicated-topology target at cfg.
func NewReplicated(cfg Config) (*Replicated, error) {
	spec := ReplicatedSpec()
	if !spec.ValidMix(cfg.Mix) {
		return nil, fmt.Errorf("targets: replicated target has no workload mix %q (mixes: %v)", cfg.Mix, spec.Mixes)
	}
	mix := cfg.Mix
	if mix == "" {
		mix = spec.Mixes[0]
	}
	r := &Replicated{
		spec:             spec,
		rng:              sim.NewRNG(cfg.Seed*6007 + 13),
		mixName:          mix,
		baseRates:        replMixes[mix],
		weights:          [2]float64{0.5, 0.5},
		primaryCapFactor: 1,
		dbCapBoost:       1,
	}
	r.load = workload.NewShaper(r.baseRates, replDriftDirs)
	r.FaultSet = NewFaultSet(ReplicatedName,
		func(f replFault) error { f.inject(r); return nil },
		func(f replFault) error { f.clear(r); return nil },
		func(f replFault) bool { return f.cleared(r) })
	for i, name := range replicaNames() {
		r.replicas[i] = &appReplica{name: name, cap: replAppCap}
	}
	// Rows: classes then app replicas (callers); cols: app-0, app-1, db.
	r.callMatrix = make([][]float64, len(replClasses)+2)
	for i := range r.callMatrix {
		r.callMatrix[i] = make([]float64, 3)
	}
	r.last.classRate = make([]float64, len(replClasses))
	r.last.classLatMS = make([]float64, len(replClasses))
	r.ratesBuf = make([]float64, len(r.baseRates))
	r.arrivalsBuf = make([]float64, len(replClasses))
	return r, nil
}

// Spec implements Target.
func (r *Replicated) Spec() Spec { return r.spec }

// Now implements Target.
func (r *Replicated) Now() int64 { return r.now }

// dbCap returns the serving database node's current capacity.
func (r *Replicated) dbCap() float64 {
	if r.usingStandby {
		return replStandbyCap * r.dbCapBoost
	}
	return replPrimaryCap * r.primaryCapFactor * r.dbCapBoost
}

// rates advances the shaper to the current tick and returns the expected
// per-class rates: the shaped base mix, plus any active fault surge. The
// result is r.ratesBuf, overwritten by the next call.
func (r *Replicated) rates() []float64 {
	r.load.Advance(r.now)
	out := r.load.RatesInto(r.now, r.ratesBuf)
	if r.surgeFactor > 1 && r.now < r.surgeUntil {
		out[r.surgeClass] *= r.surgeFactor
	}
	return out
}

// SetLoadScale implements WorkloadShaper.
func (r *Replicated) SetLoadScale(f float64) { r.load.SetScale(f) }

// EnableDiurnal implements WorkloadShaper.
func (r *Replicated) EnableDiurnal() { r.load.EnableDiurnal() }

// SetLoadDrift implements WorkloadShaper.
func (r *Replicated) SetLoadDrift(perTick float64) { r.load.SetDrift(perTick) }

// AddLoadSurge implements WorkloadShaper.
func (r *Replicated) AddLoadSurge(start, end int64, factor float64) {
	r.load.AddSurge(workload.Surge{Start: start, End: end, Factor: factor})
}

// Tick implements Target: advance replica lifecycles, route the tick's
// arrivals through the balancer, and account latency, errors and the
// component call matrix.
func (r *Replicated) Tick() detect.Sample {
	r.now++

	// Lifecycle: reboots drain, leaks grow, crashes strike.
	for _, rep := range r.replicas {
		if rep.rebootTicks > 0 {
			rep.rebootTicks--
			if rep.rebootTicks == 0 {
				rep.down = false
				rep.leakLevel = 0
			}
		}
		if !rep.down && rep.leakRate > 0 {
			rep.leakLevel += rep.leakRate
			if rep.leakLevel >= 1 {
				// Aging crash: the replica is gone until the crash
				// downtime drains; the leak itself persists until a fix
				// rejuvenates the replica.
				rep.leakLevel = 1
				rep.down = true
				rep.rebootTicks = replCrashTicks
			}
		}
	}
	if r.switchTicks > 0 {
		r.switchTicks--
	}
	if r.globalDownTicks > 0 {
		r.globalDownTicks--
	}

	// Load-balancer health checks: rotate replicas out after observing
	// them down for the health-check lag, back in after the same lag up.
	for _, rep := range r.replicas {
		if rep.down {
			rep.downFor++
			rep.upFor = 0
			if rep.downFor >= replLBLagTicks {
				rep.markedOut = true
			}
		} else {
			rep.upFor++
			rep.downFor = 0
			if rep.upFor >= replLBLagTicks {
				rep.markedOut = false
			}
		}
	}

	st := replTick{
		classRate:  r.last.classRate[:len(replClasses)],
		classLatMS: r.last.classLatMS[:len(replClasses)],
	}
	for i := range r.callMatrix {
		for j := range r.callMatrix[i] {
			r.callMatrix[i][j] = 0
		}
	}

	// Arrivals (Poisson per class, multiplicative demand noise).
	rates := r.rates()
	arrivals := r.arrivalsBuf
	for c, rate := range rates {
		a := float64(r.rng.Poisson(rate))
		n := 1 + r.rng.Normal(0, replNoiseFrac)
		if n < 0.5 {
			n = 0.5
		}
		arrivals[c] = a * n
		st.arrivals += arrivals[c]
	}

	outage := r.globalDownTicks > 0 || r.switchTicks > 0
	// Effective rotation: weights over in-rotation replicas.
	inRot := [2]bool{}
	totalW := 0.0
	for i, rep := range r.replicas {
		if !rep.markedOut {
			inRot[i] = true
			totalW += r.weights[i]
		}
	}
	if totalW <= 0 {
		outage = true
	}
	if outage {
		st.down = true
		st.errors = st.arrivals
		st.sloViolations = st.arrivals
		st.avgLatMS = replTimeoutMS
		for c := range replClasses {
			st.classRate[c] = 0
			st.classLatMS[c] = replTimeoutMS
		}
		r.last = st
		return r.sample(st)
	}

	// Share of traffic the balancer still sends to a dead replica
	// (down but not yet rotated out): those requests fail fast.
	deadShare := 0.0
	effW := [2]float64{}
	for i, rep := range r.replicas {
		if !inRot[i] {
			continue
		}
		w := r.weights[i] / totalW
		if rep.down {
			deadShare += w
			continue
		}
		effW[i] = w
	}
	liveW := 1 - deadShare

	// Demands and utilizations.
	var webDemand, appDemand, dbDemand float64
	for c, class := range replClasses {
		webDemand += arrivals[c] * class.webOps
		appDemand += arrivals[c] * liveW * class.appOps
		dbDemand += arrivals[c] * liveW * class.dbOps
	}
	st.webUtil = webDemand / replWebCap
	liveTotal := effW[0] + effW[1]
	for i, rep := range r.replicas {
		if effW[i] <= 0 || liveTotal <= 0 {
			continue
		}
		st.replicaUtil[i] = appDemand * (effW[i] / liveTotal) / (rep.cap * rep.capacityFactor())
	}
	st.dbUtil = dbDemand / r.dbCap()

	// Admission control at saturation: the excess is shed as errors.
	admit := 1.0
	for _, u := range []float64{st.webUtil, st.replicaUtil[0], st.replicaUtil[1], st.dbUtil} {
		if u > 1 && 0.98/u < admit {
			admit = 0.98 / u
		}
	}

	// Per-class outcome: latency through the balanced path, errors from
	// dead-replica routing, bad deploys, shedding and timeouts.
	var latSum, latWeight float64
	for c, class := range replClasses {
		a := arrivals[c]
		if a <= 0 {
			st.classRate[c] = 0
			st.classLatMS[c] = 0
			continue
		}
		// Replica-weighted app latency and fail-fast error fraction.
		appMS, failFrac := 0.0, deadShare
		for i, rep := range r.replicas {
			if effW[i] <= 0 || liveTotal <= 0 {
				continue
			}
			share := effW[i] / liveTotal
			appMS += share * class.appOps * replAppMSPerOp * service.Inflation(st.replicaUtil[i]) / rep.capacityFactor()
			failFrac += liveW * share * rep.errorRate
		}
		webMS := class.webOps * replWebMSPerOp * service.Inflation(st.webUtil)
		dbMS := class.dbOps * replDBMSPerOp * service.Inflation(st.dbUtil)
		lat := webMS + appMS + dbMS

		ok := a * (1 - failFrac) * admit
		errs := a - ok
		if lat >= replTimeoutMS {
			lat = replTimeoutMS
			errs += ok
			ok = 0
		}
		st.classRate[c] = ok
		st.classLatMS[c] = lat
		st.served += ok
		st.errors += errs
		latSum += lat * (ok + 1e-9)
		latWeight += ok + 1e-9
		if lat > replSLOLatMS {
			st.sloViolations += ok
		}

		// Call matrix rows: class → replica splits follow the balancer,
		// including the share still routed at a dead replica — the
		// deviation the χ² test localizes.
		for i := range r.replicas {
			if inRot[i] && totalW > 0 {
				r.callMatrix[c][i] += a * r.weights[i] / totalW
			}
		}
		// class → db direct calls are zero; replicas call the db below.
	}
	st.sloViolations += st.errors
	if latWeight > 0 {
		st.avgLatMS = latSum / latWeight
	}

	// Replica → db call rows: live replicas forward their successful
	// share of query work.
	for i, rep := range r.replicas {
		if effW[i] <= 0 || liveTotal <= 0 || rep.down {
			continue
		}
		for c := range replClasses {
			r.callMatrix[len(replClasses)+i][2] += st.classRate[c] * (effW[i] / liveTotal) * replClasses[c].dbOps
		}
	}

	r.last = st
	return r.sample(st)
}

func (r *Replicated) sample(st replTick) detect.Sample {
	return detect.Sample{
		Arrivals:      st.arrivals,
		Errors:        st.errors,
		AvgLatencyMS:  st.avgLatMS,
		SLOViolations: st.sloViolations,
		Down:          st.down,
	}
}

// Sources implements Target.
func (r *Replicated) Sources() []metrics.Source { return []metrics.Source{r} }

// MetricNames implements metrics.Source. The shared service-level names
// (svc.*, web.cpu.util, db.cpu.util, app.cpu.util) deliberately reuse the
// auction target's names: detect.DefaultSymptomSpace assigns symptom
// dimensions by name, so cross-target knowledge bases see these at the
// same aligned indices while replica-scoped gauges get dimensions only
// this topology populates.
func (r *Replicated) MetricNames() []string {
	if r.metricNames == nil {
		names := []string{
			"svc.throughput",
			"svc.errors",
			"svc.errorrate",
			"svc.latency.avg",
			"svc.slo.violations",
			"svc.down",
			"web.cpu.util",
			"app.cpu.util",
			"db.cpu.util",
			"db.on.standby",
			"db.primary.capfactor",
		}
		for _, name := range replicaNames() {
			names = append(names,
				"app.replica."+name+".util",
				"app.replica."+name+".up",
				"app.replica."+name+".errorrate",
				"app.replica."+name+".leak",
				"lb.weight."+name,
			)
		}
		for _, c := range replClasses {
			names = append(names, "web.req."+c.name+".rate")
		}
		for _, c := range replClasses {
			names = append(names, "web.req."+c.name+".latms")
		}
		r.metricNames = names
	}
	return r.metricNames
}

// ReadMetrics implements metrics.Source.
func (r *Replicated) ReadMetrics(dst []float64) {
	st := &r.last
	i := 0
	put := func(v float64) { dst[i] = v; i++ }
	down, standby := 0.0, 0.0
	if st.down {
		down = 1
	}
	if r.usingStandby {
		standby = 1
	}
	errRate := 0.0
	if st.arrivals > 0 {
		errRate = st.errors / st.arrivals
	}
	put(st.served)
	put(st.errors)
	put(errRate)
	put(st.avgLatMS)
	put(st.sloViolations)
	put(down)
	put(st.webUtil)
	put((st.replicaUtil[0] + st.replicaUtil[1]) / 2)
	put(st.dbUtil)
	put(standby)
	put(r.primaryCapFactor)
	for idx, rep := range r.replicas {
		up := 1.0
		if rep.down {
			up = 0
		}
		put(st.replicaUtil[idx])
		put(up)
		put(rep.errorRate)
		put(rep.leakLevel)
		put(r.weights[idx])
	}
	for c := range replClasses {
		put(st.classRate[c])
	}
	for c := range replClasses {
		put(st.classLatMS[c])
	}
}

// CallMatrix implements Target.
func (r *Replicated) CallMatrix() [][]float64 { return r.callMatrix }

// CallMatrixRows implements Target.
func (r *Replicated) CallMatrixRows() int { return len(replClasses) + 2 }

// CallMatrixSupport implements CallMatrixSupporter: classes call the two
// app replicas (cols 0 and 1); each replica row calls only the db (col 2).
// The class → db cells and replica → replica cells are always zero.
func (r *Replicated) CallMatrixSupport() [][2]int {
	var cells [][2]int
	for c := range replClasses {
		for i := range r.replicas {
			cells = append(cells, [2]int{c, i})
		}
	}
	for i := range r.replicas {
		cells = append(cells, [2]int{len(replClasses) + i, 2})
	}
	return cells
}

// CallCallees implements Target.
func (r *Replicated) CallCallees() []string { return []string{"app-0", "app-1", "db"} }

// SamplePaths implements Target: follow each class through the balancer's
// current weights, marking the hop where a request dies.
func (r *Replicated) SamplePaths() []trace.Path {
	rng := sim.NewRNG(r.now ^ 0x5eed)
	var paths []trace.Path
	for c, class := range replClasses {
		n := 4
		if r.baseRates[c] > 25 {
			n = 8
		}
		for k := 0; k < n; k++ {
			p := trace.Path{Class: class.name}
			p.Hops = append(p.Hops, trace.Hop{Tier: "web", Component: "lb"})
			// Route by the raw weights: health-check lag means dead
			// replicas can still receive traffic.
			idx := 0
			total := r.weights[0] + r.weights[1]
			if total > 0 && rng.Uniform(0, total) > r.weights[0] {
				idx = 1
			}
			rep := r.replicas[idx]
			hop := trace.Hop{Tier: "app", Component: rep.name}
			if rep.down || (rep.errorRate > 0 && rng.Bool(rep.errorRate)) {
				hop.Failed = true
				p.Failed = true
				p.Hops = append(p.Hops, hop)
				paths = append(paths, p)
				continue
			}
			p.Hops = append(p.Hops, hop)
			dbHop := trace.Hop{Tier: "db", Component: "db"}
			if r.switchTicks > 0 {
				dbHop.Failed = true
				p.Failed = true
			}
			p.Hops = append(p.Hops, dbHop)
			paths = append(paths, p)
		}
	}
	return paths
}

// replicaIndex resolves a replica fix target; -1 when unknown.
func (r *Replicated) replicaIndex(name string) int {
	for i, n := range replicaNames() {
		if n == name {
			return i
		}
	}
	return -1
}

// Apply implements Target: the rebalance/failover fix vocabulary.
func (r *Replicated) Apply(a Action) (int64, error) {
	switch a.Fix {
	case catalog.FixFailoverNode:
		if a.Target == "db" {
			// Promote the standby; the switchover is a short outage.
			r.usingStandby = !r.usingStandby
			r.switchTicks = replSwitchTicks
			return replSwitchTicks + 4, nil
		}
		i := r.replicaIndex(a.Target)
		if i < 0 {
			return 0, fmt.Errorf("targets: failover-node cannot target %q (want app-0, app-1 or db)", a.Target)
		}
		// Replace the node: a fresh replica with a clean image.
		rep := r.replicas[i]
		rep.down = false
		rep.rebootTicks = 0
		rep.errorRate = 0
		rep.leakRate = 0
		rep.leakLevel = 0
		return 12, nil
	case catalog.FixRebootAppTier:
		i := r.replicaIndex(a.Target)
		if i < 0 {
			return 0, fmt.Errorf("targets: reboot-app-tier on the replicated target needs a replica (app-0 or app-1), got %q", a.Target)
		}
		rep := r.replicas[i]
		rep.down = true
		rep.rebootTicks = replRebootTicks
		rep.errorRate = 0
		rep.leakRate = 0
		rep.leakLevel = 0
		return replRebootTicks + replLBLagTicks + 4, nil
	case catalog.FixRestoreConfig:
		r.weights = [2]float64{0.5, 0.5}
		return 6, nil
	case catalog.FixProvisionTier:
		// Growth stops at the auction engine's bound, relative to the
		// configured capacity.
		switch a.Target {
		case "db":
			grow := r.last.dbUtil / 0.65
			if !(grow >= 1.5) {
				grow = 1.5
			}
			r.dbCapBoost = math.Min(r.dbCapBoost*grow, service.MaxProvisionGrowth)
			return 16, nil
		case "app":
			for _, rep := range r.replicas {
				rep.cap = math.Min(rep.cap*1.5, replAppCap*service.MaxProvisionGrowth)
			}
			return 16, nil
		default:
			return 0, fmt.Errorf("targets: provision-tier cannot target %q (want app or db)", a.Target)
		}
	case catalog.FixFullRestart:
		r.globalDownTicks = 40
		r.weights = [2]float64{0.5, 0.5}
		for _, rep := range r.replicas {
			rep.down = true
			rep.rebootTicks = 30
			rep.errorRate = 0
			rep.leakRate = 0
			rep.leakLevel = 0
		}
		return 80, nil
	case catalog.FixNotifyAdmin:
		return 0, nil
	default:
		return 0, fmt.Errorf("targets: replicated target has no fix %v", a.Fix)
	}
}

// --- Faults ---------------------------------------------------------------

// replFault is the injection contract replicated faults implement on top
// of the target-agnostic Fault descriptor: the three mechanics the
// target's FaultSet is built from.
type replFault interface {
	Fault
	inject(r *Replicated)
	clear(r *Replicated)
	cleared(r *Replicated) bool
}

// ReplicaDown is a hardware loss of one app replica: the balancer keeps
// routing at the corpse until its health checks catch up, then the
// survivor absorbs double load.
type ReplicaDown struct{ Replica string }

// NewReplicaDown builds a replica hardware-loss fault.
func NewReplicaDown(replica string) *ReplicaDown { return &ReplicaDown{Replica: replica} }

func (f *ReplicaDown) Kind() catalog.FaultKind { return catalog.FaultHardware }
func (f *ReplicaDown) Cause() catalog.Cause    { return catalog.CauseHardware }
func (f *ReplicaDown) Target() string          { return f.Replica }
func (f *ReplicaDown) CorrectFix() (catalog.FixID, string) {
	return catalog.FixFailoverNode, f.Replica
}
func (f *ReplicaDown) inject(r *Replicated) {
	if i := r.replicaIndex(f.Replica); i >= 0 {
		r.replicas[i].down = true
		r.replicas[i].rebootTicks = 0
	}
}
func (f *ReplicaDown) clear(r *Replicated) {
	if i := r.replicaIndex(f.Replica); i >= 0 {
		r.replicas[i].down = false
		r.replicas[i].rebootTicks = 0
	}
}
func (f *ReplicaDown) cleared(r *Replicated) bool {
	i := r.replicaIndex(f.Replica)
	return i < 0 || !r.replicas[i].down
}

// PrimaryDegraded is failing hardware under the primary database: its
// capacity collapses and queries queue. The fix is promoting the standby.
type PrimaryDegraded struct{ Factor float64 }

// NewPrimaryDegraded builds a primary-DB hardware fault; factor in (0,1)
// is the capacity fraction that survives.
func NewPrimaryDegraded(factor float64) *PrimaryDegraded { return &PrimaryDegraded{Factor: factor} }

func (f *PrimaryDegraded) Kind() catalog.FaultKind { return catalog.FaultHardware }
func (f *PrimaryDegraded) Cause() catalog.Cause    { return catalog.CauseHardware }
func (f *PrimaryDegraded) Target() string          { return "db" }
func (f *PrimaryDegraded) CorrectFix() (catalog.FixID, string) {
	return catalog.FixFailoverNode, "db"
}
func (f *PrimaryDegraded) inject(r *Replicated) { r.primaryCapFactor = f.Factor }
func (f *PrimaryDegraded) clear(r *Replicated)  { r.primaryCapFactor = 1 }
func (f *PrimaryDegraded) cleared(r *Replicated) bool {
	return r.usingStandby || r.primaryCapFactor >= 0.95
}

// RoutingSkew is an operator misconfiguration of the balancer: one
// replica takes almost all the traffic and saturates while its peer
// idles.
type RoutingSkew struct{ Fraction float64 }

// NewRoutingSkew builds a balancer-misconfiguration fault; fraction is
// the weight mistakenly given to replica app-0.
func NewRoutingSkew(fraction float64) *RoutingSkew { return &RoutingSkew{Fraction: fraction} }

func (f *RoutingSkew) Kind() catalog.FaultKind { return catalog.FaultOperatorConfig }
func (f *RoutingSkew) Cause() catalog.Cause    { return catalog.CauseOperator }
func (f *RoutingSkew) Target() string          { return "lb" }
func (f *RoutingSkew) CorrectFix() (catalog.FixID, string) {
	return catalog.FixRestoreConfig, ""
}
func (f *RoutingSkew) inject(r *Replicated) {
	r.weights = [2]float64{f.Fraction, 1 - f.Fraction}
}
func (f *RoutingSkew) clear(r *Replicated) { r.weights = [2]float64{0.5, 0.5} }
func (f *RoutingSkew) cleared(r *Replicated) bool {
	return math.Abs(r.weights[0]-0.5) < 0.05
}

// ReplicaLeak is software aging confined to one replica: its capacity
// decays until it crashes, recovers, and crashes again.
type ReplicaLeak struct {
	Replica string
	Rate    float64
}

// NewReplicaLeak builds a replica aging fault leaking rate level/tick.
func NewReplicaLeak(replica string, rate float64) *ReplicaLeak {
	return &ReplicaLeak{Replica: replica, Rate: rate}
}

func (f *ReplicaLeak) Kind() catalog.FaultKind { return catalog.FaultAging }
func (f *ReplicaLeak) Cause() catalog.Cause    { return catalog.CauseSoftware }
func (f *ReplicaLeak) Target() string          { return f.Replica }
func (f *ReplicaLeak) CorrectFix() (catalog.FixID, string) {
	return catalog.FixRebootAppTier, f.Replica
}
func (f *ReplicaLeak) inject(r *Replicated) {
	if i := r.replicaIndex(f.Replica); i >= 0 {
		r.replicas[i].leakRate = f.Rate
	}
}
func (f *ReplicaLeak) clear(r *Replicated) {
	if i := r.replicaIndex(f.Replica); i >= 0 {
		r.replicas[i].leakRate = 0
		r.replicas[i].leakLevel = 0
	}
}
func (f *ReplicaLeak) cleared(r *Replicated) bool {
	i := r.replicaIndex(f.Replica)
	return i < 0 || (r.replicas[i].leakRate == 0 && r.replicas[i].leakLevel < 0.05)
}

// BadDeploy is a broken build canaried onto one replica: a fraction of
// its requests fail fast while the peer replica serves cleanly.
type BadDeploy struct {
	Replica string
	Rate    float64
}

// NewBadDeploy builds a single-replica bad-deploy fault failing rate of
// its requests.
func NewBadDeploy(replica string, rate float64) *BadDeploy {
	return &BadDeploy{Replica: replica, Rate: rate}
}

func (f *BadDeploy) Kind() catalog.FaultKind { return catalog.FaultException }
func (f *BadDeploy) Cause() catalog.Cause    { return catalog.CauseSoftware }
func (f *BadDeploy) Target() string          { return f.Replica }
func (f *BadDeploy) CorrectFix() (catalog.FixID, string) {
	return catalog.FixRebootAppTier, f.Replica
}
func (f *BadDeploy) inject(r *Replicated) {
	if i := r.replicaIndex(f.Replica); i >= 0 {
		r.replicas[i].errorRate = f.Rate
	}
}
func (f *BadDeploy) clear(r *Replicated) {
	if i := r.replicaIndex(f.Replica); i >= 0 {
		r.replicas[i].errorRate = 0
	}
}
func (f *BadDeploy) cleared(r *Replicated) bool {
	i := r.replicaIndex(f.Replica)
	return i < 0 || r.replicas[i].errorRate == 0
}

// SearchSurge is offered load past the database's capacity: analytic
// search traffic multiplies for a while (Table 1's bottlenecked tier,
// replicated-topology edition).
type SearchSurge struct {
	Factor   float64
	Duration int64
	start    int64
}

// NewSearchSurge builds a db-bottleneck fault: Search traffic × factor
// for duration ticks.
func NewSearchSurge(factor float64, duration int64) *SearchSurge {
	return &SearchSurge{Factor: factor, Duration: duration}
}

func (f *SearchSurge) Kind() catalog.FaultKind { return catalog.FaultBottleneck }
func (f *SearchSurge) Cause() catalog.Cause    { return catalog.CauseUnknown }
func (f *SearchSurge) Target() string          { return "db" }
func (f *SearchSurge) CorrectFix() (catalog.FixID, string) {
	return catalog.FixProvisionTier, "db"
}
func (f *SearchSurge) inject(r *Replicated) {
	f.start = r.now
	r.surgeFactor = f.Factor
	r.surgeClass = 2 // Search
	r.surgeUntil = r.now + f.Duration
}
func (f *SearchSurge) clear(r *Replicated) { r.surgeUntil = min(r.surgeUntil, r.now) }
func (f *SearchSurge) cleared(r *Replicated) bool {
	if r.now >= f.start+f.Duration {
		return true
	}
	return r.last.dbUtil < 0.88 && !r.last.down
}

// --- Optional capabilities ------------------------------------------------

// InjectPartial implements PartialInjector: inject a severity-scaled
// clone of f — the grey-failure model. Severity s in (0,1) interpolates
// each fault's main knob between "no effect" and the full fault: a bad
// deploy fails s times its scripted fraction, a leak leaks at s times
// its rate, a routing skew moves s of the way off balance, a degraded
// primary keeps 1-(1-factor)·s of its capacity, a surge multiplies by
// 1+(factor-1)·s. A dead replica has no fractional form and is refused.
// The clone is tracked under f, so ClearFault(f) quiets a grey fault
// that flaps.
func (r *Replicated) InjectPartial(f Fault, severity float64) error {
	if severity <= 0 || severity > 1 {
		return fmt.Errorf("targets: partial injection severity %v outside (0, 1]", severity)
	}
	if severity == 1 {
		return r.Inject(f)
	}
	var scaled replFault
	switch ft := f.(type) {
	case *BadDeploy:
		scaled = NewBadDeploy(ft.Replica, ft.Rate*severity)
	case *ReplicaLeak:
		scaled = NewReplicaLeak(ft.Replica, ft.Rate*severity)
	case *RoutingSkew:
		scaled = NewRoutingSkew(0.5 + (ft.Fraction-0.5)*severity)
	case *PrimaryDegraded:
		scaled = NewPrimaryDegraded(1 - (1-ft.Factor)*severity)
	case *SearchSurge:
		scaled = NewSearchSurge(1+(ft.Factor-1)*severity, ft.Duration)
	case *ReplicaDown:
		return fmt.Errorf("targets: replica-down has no fractional severity (the node is either up or down)")
	default:
		return fmt.Errorf("targets: replicated target cannot partially inject %T", f)
	}
	return r.injectAs(f, scaled)
}

// MakeFault implements FaultMaker: deterministic construction of any
// catalog fault from a scenario spec. Magnitude maps to each kind's main
// knob; zero picks a fixed mid-range default inside the random campaign
// generator's band.
func (r *Replicated) MakeFault(kind catalog.FaultKind, component string, magnitude float64, duration int64) (Fault, error) {
	replica := component
	if replica == "" {
		replica = replicaNames()[0]
	}
	mag := func(def float64) float64 {
		if magnitude == 0 {
			return def
		}
		return magnitude
	}
	needReplica := func() error {
		if r.replicaIndex(replica) < 0 {
			return fmt.Errorf("targets: replicated %v fault needs a replica component (app-0 or app-1), got %q", kind, component)
		}
		return nil
	}
	switch kind {
	case catalog.FaultHardware:
		if component == "db" {
			return NewPrimaryDegraded(mag(0.3)), nil
		}
		if err := needReplica(); err != nil {
			return nil, err
		}
		return NewReplicaDown(replica), nil
	case catalog.FaultOperatorConfig:
		return NewRoutingSkew(mag(0.9)), nil
	case catalog.FaultAging:
		if err := needReplica(); err != nil {
			return nil, err
		}
		return NewReplicaLeak(replica, mag(0.01)), nil
	case catalog.FaultException:
		if err := needReplica(); err != nil {
			return nil, err
		}
		return NewBadDeploy(replica, mag(0.55)), nil
	case catalog.FaultBottleneck:
		if duration == 0 {
			duration = 900
		}
		return NewSearchSurge(mag(4), duration), nil
	default:
		return nil, fmt.Errorf("targets: replicated target cannot make a %v fault (kinds: %v)", kind, r.spec.FaultKinds)
	}
}

// --- Fault generation -----------------------------------------------------

// replFaultGen draws random replicated-topology faults.
type replFaultGen struct {
	rng   *sim.RNG
	kinds []catalog.FaultKind
}

// NewFaults implements Target.
func (r *Replicated) NewFaults(seed int64, kinds ...catalog.FaultKind) (FaultGen, error) {
	return NewReplicatedFaults(r.spec, seed, kinds...)
}

// NewReplicatedFaults builds the replicated target's fault generator,
// validating every kind against the spec's catalog.
func NewReplicatedFaults(spec Spec, seed int64, kinds ...catalog.FaultKind) (FaultGen, error) {
	if len(kinds) == 0 {
		kinds = append([]catalog.FaultKind(nil), spec.FaultKinds...)
	}
	if err := spec.ValidateKinds(kinds); err != nil {
		return nil, err
	}
	return &replFaultGen{rng: sim.NewRNG(seed), kinds: kinds}, nil
}

func (g *replFaultGen) Next() Fault {
	kind := g.kinds[g.rng.Intn(len(g.kinds))]
	r := g.rng
	replica := replicaNames()[r.Intn(2)]
	switch kind {
	case catalog.FaultHardware:
		if r.Bool(0.5) {
			return NewReplicaDown(replica)
		}
		return NewPrimaryDegraded(r.Uniform(0.2, 0.4))
	case catalog.FaultOperatorConfig:
		frac := r.Uniform(0.85, 0.95)
		if r.Bool(0.5) {
			frac = 1 - frac
		}
		return NewRoutingSkew(frac)
	case catalog.FaultAging:
		return NewReplicaLeak(replica, r.Uniform(0.006, 0.015))
	case catalog.FaultException:
		return NewBadDeploy(replica, r.Uniform(0.3, 0.8))
	case catalog.FaultBottleneck:
		return NewSearchSurge(r.Uniform(3.5, 5), int64(r.Uniform(600, 1500)))
	default:
		panic("targets: replicated generator cannot draw " + kind.String())
	}
}
