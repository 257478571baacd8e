// Package service implements the multitier-service simulator the paper's
// evaluation runs on (§5.2): an analytical, tick-driven model of a
// RUBiS-like auction service (Example 1) with a web tier, an EJB
// application tier and a database tier. Each tick it routes per-class
// request arrivals through a utilization-scaled queueing model and emits a
// multidimensional metric row plus the EJB call matrix of Example 2.
//
// Faults (internal/faults) perturb the exported tier state; fixes
// (targets.Auction.Apply) call the recovery methods at the bottom of this
// file.
// The learning layers never see this package's internals — only the metric
// stream — which preserves the paper's separation between the service and
// the self-healing logic observing it.
package service

import (
	"math"

	"selfheal/internal/catalog"
	"selfheal/internal/sim"
)

// Config sizes the simulated service. The defaults put every resource near
// 60% utilization at the default workload, the regime the paper's failure
// scenarios perturb.
type Config struct {
	Seed int64

	WebNodes      int
	AppNodes      int
	DBNodes       int
	WebOpsPerNode float64
	AppOpsPerNode float64
	DBOpsPerNode  float64

	WebThreads    int
	AppThreads    int
	DBConnections int
	DBConnOps     float64 // ops/s a single connection can carry

	IOOpsPerSec float64 // disk capability of the database tier
	MissMS      float64 // service time of one buffer miss
	BufferMB    float64
	HeapMB      float64
	BaseHeapMB  float64

	TimeoutMS    float64 // request timeout; hung requests hold threads this long
	SLOLatencyMS float64 // per-request latency objective (used for the SLO-violation metric)
	NetHops      float64
	NetLatencyMS float64

	NoiseFrac float64 // multiplicative demand noise (std dev as a fraction)
}

// DefaultConfig returns the configuration every experiment starts from.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		WebNodes:      2,
		AppNodes:      3,
		DBNodes:       1,
		WebOpsPerNode: 170,
		AppOpsPerNode: 280,
		DBOpsPerNode:  330,
		WebThreads:    500,
		AppThreads:    400,
		DBConnections: 120,
		DBConnOps:     28,
		IOOpsPerSec:   3200,
		MissMS:        3,
		BufferMB:      640,
		HeapMB:        2048,
		BaseHeapMB:    600,
		TimeoutMS:     8000,
		SLOLatencyMS:  250,
		NetHops:       4,
		NetLatencyMS:  1,
		NoiseFrac:     0.03,
	}
}

// Network is the inter-tier network state; faults add latency and loss.
type Network struct {
	ExtraLatencyMS float64
	LossRate       float64
}

// Service is the simulated multitier service.
type Service struct {
	cfg   Config
	clock *sim.Clock
	rng   *sim.RNG

	Web *WebTier
	App *AppTier
	DB  *DBTier
	Net Network

	classes []RequestClass
	// expand[e][f] is the number of invocations of EJB f caused by one
	// invocation of EJB e (including itself), following the call graph.
	expand [][]float64
	// pathInv[c][e] is the number of invocations of EJB e caused by one
	// request of class c.
	pathInv [][]float64

	// fullRestartPending counts remaining full-restart downtime across all
	// tiers (the paper's "general costly fix").
	goodConfig Config
	brokenKnob OperatorKnob
	knobTarget string

	callMatrix [][]float64 // rows: classes then EJBs; cols: EJBs
	// cmBacking is callMatrix's single backing array, kept so zeroing it
	// is one linear pass instead of a row-by-row loop.
	cmBacking []float64
	// The call matrix is built on demand: Tick saves each class's noised
	// arrivals beside the tick terms it read (terms.hang, terms.errRate,
	// terms.deadlocked), and the first CallMatrix after it builds the rows
	// from them.
	cmStale    bool
	cmArrivals []float64
	// stBacking backs every slice field of the TickStats returned by Tick;
	// those slices are valid until the next Tick call. Its runs lie in
	// metric-row order: per-class rate, latency and errors, per-EJB calls,
	// per-table queries, lock wait and cost.
	stBacking   []float64
	last        TickStats
	metricNames []string

	// Resolved topology, built once at construction. The Defs are immutable
	// and the tier slices never change after New, so every name→index
	// resolution and every static per-class aggregate the tick path needs
	// can be precomputed here instead of re-derived every tick.
	classCalls [][]resolvedCall // per class: direct EJB calls
	ejbCalls   [][]resolvedCall // per EJB: nested EJB→EJB calls
	ejbQueries [][]resolvedQuery
	pathSparse [][]pathTerm // per class: nonzero pathInv entries
	baseAppOps []float64    // per class: AppExtraOps + Σ inv·AppOps
	workingSet float64      // Σ table working sets (Defs are immutable)

	// terms holds the tick terms that depend only on component state,
	// with the state they were built from.
	terms tickTerms

	// env holds environmental telemetry unrelated to failures (host
	// counters, background daemons, co-located tenants): real monitoring
	// schemas carry many such attributes, and the learners must cope with
	// them (§4.2's warning that monitoring data may be limited *and*
	// noisy). Each evolves as a mean-reverting random walk.
	env []envWalk
}

// resolvedCall is an EJBCall with its callee resolved to an index.
type resolvedCall struct {
	callee int
	count  float64
}

// resolvedQuery is a QueryDef with its table resolved to a pointer and
// index (table pointers are stable for the life of the service).
type resolvedQuery struct {
	q  QueryDef
	t  *Table
	ti int
}

// pathTerm is one nonzero entry of pathInv[c]: EJB e is invoked inv times
// per request of the class.
type pathTerm struct {
	ejb int
	inv float64
}

// tickTerms are the terms of a tick that depend only on component state,
// not on arrivals: per-class failure and hang probabilities, per-query
// costs and their products with each class's invocation counts, each
// class's app ops and latency before queueing inflation. That state
// changes only when a fault, a fix, a reboot timer or a crash touches it,
// so Tick rebuilds the terms only when the state it reads differs from the
// key they were built from.
//
// The key holds values, not a version: internal/faults writes these
// fields directly. A NaN in the key never equals itself, so it rebuilds
// every tick — slow, but exact. Each cached product keeps the association
// the per-tick expression had, so every float keeps its bits.
type tickTerms struct {
	built  bool
	ejbs   []ejbKey
	tables []tableKey
	tiers  tierKey

	errRate    []float64 // per EJB: effective error rate
	deadlocked []bool    // per EJB
	// Per class: fail-fast and hang probabilities, and the fraction that
	// does neither.
	fail, hang, ok []float64
	appOps         []float64 // per class: app ops per request, bug retries included
	lock           []float64 // per class: lock wait per request
	// Per class: web, app, db and io milliseconds per request before
	// queueing inflation. A class without arrivals reads dbIdle and ioIdle
	// for db and io, and no lock wait: it issued no queries.
	webMS, appMS, dbMS, ioMS []float64
	dbIdle, ioIdle           float64
	missRatio, planSlowdown  float64

	calls   [][]callTerm  // per class: its path terms, in pathSparse order
	queries [][]queryTerm // per class: its path terms' queries, in order
}

// ejbKey, tableKey and tierKey are the state the tick terms read.
type ejbKey struct {
	errorRate, bugErrorRate float64
	rebooting, deadlocked   bool
}

type tableKey struct {
	indexDropped, statsStale bool
	planSlowdown, contention float64
}

type tierKey struct {
	webOps, appOps, dbOps, bufferMB float64
}

// callTerm is a path term with its EJB's bug retry multiplier.
type callTerm struct {
	ejb      int
	inv, mul float64
	bug      bool
}

// queryTerm is one query of a class's path term, its costs multiplied by
// the term's invocations.
type queryTerm struct {
	ti                             int
	inv, cost, reads, writes, wait float64
	locks                          bool
}

// envWalk is one drifting environmental metric.
type envWalk struct {
	name  string
	value float64
	mean  float64
	step  float64
}

// OperatorKnob identifies an operator misconfiguration applied to the
// service (the FaultOperatorConfig family).
type OperatorKnob int

// The operator mistakes the fault injector can make.
const (
	KnobNone OperatorKnob = iota
	// KnobSmallThreadPool shrinks the app-tier thread pool.
	KnobSmallThreadPool
	// KnobSmallConnPool shrinks the database connection pool.
	KnobSmallConnPool
	// KnobRoutingSkew misconfigures the load balancer.
	KnobRoutingSkew
	// KnobDroppedIndex drops a table's index.
	KnobDroppedIndex
	// KnobSmallBuffer misconfigures the buffer pool allocation.
	KnobSmallBuffer
)

// New constructs a service from cfg with the canonical RUBiS topology.
func New(cfg Config) *Service {
	s := &Service{
		cfg:        cfg,
		goodConfig: cfg,
		clock:      &sim.Clock{},
		rng:        sim.NewRNG(cfg.Seed),
		classes:    defaultClasses,
	}
	s.Web = &WebTier{
		TierState: TierState{Tier: catalog.TierWeb, Nodes: cfg.WebNodes, OpsPerNode: cfg.WebOpsPerNode},
		Threads:   cfg.WebThreads,
	}
	s.App = &AppTier{
		TierState:  TierState{Tier: catalog.TierApp, Nodes: cfg.AppNodes, OpsPerNode: cfg.AppOpsPerNode},
		Threads:    cfg.AppThreads,
		HeapMB:     cfg.HeapMB,
		HeapUsedMB: cfg.BaseHeapMB,
		byEJB:      make(map[string]*EJB, len(defaultEJBs)),
	}
	for _, def := range defaultEJBs {
		e := &EJB{Def: def}
		s.App.ejbs = append(s.App.ejbs, e)
		s.App.byEJB[def.Name] = e
	}
	s.DB = &DBTier{
		TierState:   TierState{Tier: catalog.TierDB, Nodes: cfg.DBNodes, OpsPerNode: cfg.DBOpsPerNode},
		Connections: cfg.DBConnections,
		IOOpsPerSec: cfg.IOOpsPerSec,
		Buffer:      BufferPool{ConfiguredMB: cfg.BufferMB, EffectiveMB: cfg.BufferMB},
		byTable:     make(map[string]*Table, len(defaultTables)),
	}
	for _, def := range defaultTables {
		t := &Table{Def: def, PlanSlowdown: 1}
		s.DB.tables = append(s.DB.tables, t)
		s.DB.byTable[def.Name] = t
	}
	s.buildExpansion()
	s.buildEnv()
	n := len(s.classes) + len(s.App.ejbs)
	cols := len(s.App.ejbs)
	s.cmBacking = make([]float64, n*cols)
	s.callMatrix = make([][]float64, n)
	for i := range s.callMatrix {
		s.callMatrix[i] = s.cmBacking[i*cols : (i+1)*cols : (i+1)*cols]
	}
	s.buildResolved()
	return s
}

// buildResolved precomputes the name→index resolutions and static
// aggregates the tick path needs, so the per-tick loops never search by
// string or touch a map.
func (s *Service) buildResolved() {
	nC := len(s.classes)
	s.classCalls = make([][]resolvedCall, nC)
	s.pathSparse = make([][]pathTerm, nC)
	s.baseAppOps = make([]float64, nC)
	for ci, c := range s.classes {
		calls := make([]resolvedCall, len(c.Calls))
		for i, call := range c.Calls {
			calls[i] = resolvedCall{callee: s.ejbIndex(call.Callee), count: call.Count}
		}
		s.classCalls[ci] = calls
		// baseAppOps accumulates in the same order the tick loop used to,
		// so the floating-point sum is bitwise identical.
		appOps := c.AppExtraOps
		for e, inv := range s.pathInv[ci] {
			if inv <= 0 {
				continue
			}
			s.pathSparse[ci] = append(s.pathSparse[ci], pathTerm{ejb: e, inv: inv})
			appOps += inv * s.App.ejbs[e].Def.AppOps
		}
		s.baseAppOps[ci] = appOps
	}
	s.ejbCalls = make([][]resolvedCall, len(s.App.ejbs))
	s.ejbQueries = make([][]resolvedQuery, len(s.App.ejbs))
	for ei, e := range s.App.ejbs {
		calls := make([]resolvedCall, len(e.Def.CallsTo))
		for i, call := range e.Def.CallsTo {
			calls[i] = resolvedCall{callee: s.ejbIndex(call.Callee), count: call.Count}
		}
		s.ejbCalls[ei] = calls
		qs := make([]resolvedQuery, len(e.Def.Queries))
		for i, q := range e.Def.Queries {
			ti := s.tableIndex(q.Table)
			qs[i] = resolvedQuery{q: q, t: s.DB.tables[ti], ti: ti}
		}
		s.ejbQueries[ei] = qs
	}
	for _, t := range s.DB.tables {
		s.workingSet += t.Def.WorkingSetMB
	}
	s.stBacking = make([]float64, 3*nC+len(s.App.ejbs)+3*len(s.DB.tables))
	s.cmArrivals = make([]float64, nC)
	s.terms.alloc(s)
}

// alloc sizes the terms to the service's topology.
func (tt *tickTerms) alloc(s *Service) {
	nC, nE := len(s.classes), len(s.App.ejbs)
	tt.ejbs = make([]ejbKey, nE)
	tt.tables = make([]tableKey, len(s.DB.tables))
	tt.errRate = make([]float64, nE)
	tt.deadlocked = make([]bool, nE)
	perClass := make([]float64, 9*nC)
	for i, p := range []*[]float64{&tt.fail, &tt.hang, &tt.ok, &tt.appOps, &tt.lock, &tt.webMS, &tt.appMS, &tt.dbMS, &tt.ioMS} {
		*p = perClass[i*nC : (i+1)*nC : (i+1)*nC]
	}
	tt.calls = make([][]callTerm, nC)
	tt.queries = make([][]queryTerm, nC)
	for c, pts := range s.pathSparse {
		tt.calls[c] = make([]callTerm, len(pts))
		n := 0
		for _, pt := range pts {
			n += len(s.ejbQueries[pt.ejb])
		}
		tt.queries[c] = make([]queryTerm, n)
	}
}

// current returns the tick terms for the component state as it is now,
// rebuilding them if any keyed value differs from the key.
func (s *Service) current() *tickTerms {
	tt := &s.terms
	same := tt.built
	for e, ejb := range s.App.ejbs {
		k := ejbKey{ejb.ErrorRate, ejb.BugErrorRate, ejb.RebootTicks > 0, ejb.Deadlocked}
		if k != tt.ejbs[e] {
			tt.ejbs[e], same = k, false
		}
	}
	for ti, t := range s.DB.tables {
		k := tableKey{t.IndexDropped, t.StatsStale, t.PlanSlowdown, t.Contention}
		if k != tt.tables[ti] {
			tt.tables[ti], same = k, false
		}
	}
	if k := (tierKey{s.Web.OpsPerNode, s.App.OpsPerNode, s.DB.OpsPerNode, s.DB.Buffer.EffectiveMB}); k != tt.tiers {
		tt.tiers, same = k, false
	}
	if !same {
		s.buildTerms()
		tt.built = true
	}
	return tt
}

// buildTerms computes the tick terms from the component state.
func (s *Service) buildTerms() {
	tt := &s.terms
	for e, ejb := range s.App.ejbs {
		tt.errRate[e] = ejb.effectiveErrorRate()
		tt.deadlocked[e] = ejb.Deadlocked
	}
	tt.missRatio = s.DB.Buffer.MissRatio(s.workingSet)
	tt.planSlowdown = s.planSlowdownAvg()
	tt.dbIdle = 0 / s.DB.OpsPerNode * 1000
	tt.ioIdle = 0 * tt.missRatio * s.cfg.MissMS
	for c, class := range s.classes {
		okProb := 1.0
		hang := 0.0
		for _, pt := range s.pathSparse[c] {
			if tt.deadlocked[pt.ejb] {
				hang += pt.inv
			}
			if r := tt.errRate[pt.ejb]; r > 0 {
				okProb *= math.Pow(1-r, pt.inv)
			}
		}
		if hang > 1 {
			hang = 1
		}
		tt.hang[c] = hang
		tt.fail[c] = (1 - okProb) * (1 - hang)
		tt.ok[c] = 1 - tt.fail[c] - tt.hang[c]

		appOps := class.AppExtraOps
		var dbOps, reads, lock float64
		qi := 0
		for pi, pt := range s.pathSparse[c] {
			e, inv := pt.ejb, pt.inv
			ejb := s.App.ejbs[e]
			appOps += inv * ejb.Def.AppOps
			ct := callTerm{ejb: e, inv: inv}
			if ejb.BugErrorRate > 0 {
				// A source-code bug triggers client retry storms: extra
				// invocations and CPU burn that an unhandled exception
				// (which fails cleanly) does not cause — the signature
				// separating Table 1's rows 2 and 8.
				retry := 2 * ejb.BugErrorRate
				ct.mul, ct.bug = 1+retry, true
				appOps += inv * ejb.Def.AppOps * retry
			}
			tt.calls[c][pi] = ct
			for _, rq := range s.ejbQueries[e] {
				qc := rq.t.QueryCost(rq.q)
				er := rq.t.EffectiveReads(rq.q)
				wait := 0.0
				if rq.t.Contention > 0 {
					w := 0.3 // readers wait less than writers
					if rq.q.Writes > 0 {
						w = 1
					}
					wait = rq.t.Contention * w
				}
				tt.queries[c][qi] = queryTerm{
					ti: rq.ti, inv: inv,
					cost: qc * inv, reads: er * inv, writes: rq.q.Writes * inv,
					wait: wait * inv, locks: wait > 0,
				}
				qi++
				dbOps += qc * inv
				reads += er * inv
				if wait > 0 {
					lock += wait * inv
				}
			}
		}
		tt.appOps[c] = appOps
		tt.lock[c] = lock
		tt.webMS[c] = class.WebOps / s.Web.OpsPerNode * 1000
		tt.appMS[c] = s.baseAppOps[c] / s.App.OpsPerNode * 1000
		tt.dbMS[c] = dbOps / s.DB.OpsPerNode * 1000
		tt.ioMS[c] = reads * tt.missRatio * s.cfg.MissMS
	}
}

// Config returns the service's current configuration.
func (s *Service) Config() Config { return s.cfg }

// Now returns the simulation tick.
func (s *Service) Now() int64 { return s.clock.Now() }

// Classes returns the request-class definitions.
func (s *Service) Classes() []RequestClass { return s.classes }

// Tier returns the state of the named tier.
func (s *Service) Tier(t catalog.Tier) *TierState {
	switch t {
	case catalog.TierWeb:
		return &s.Web.TierState
	case catalog.TierApp:
		return &s.App.TierState
	default:
		return &s.DB.TierState
	}
}

// buildExpansion precomputes call-graph expansion factors. The EJB call
// graph is a DAG, so a memoized depth-first pass suffices.
func (s *Service) buildExpansion() {
	n := len(defaultEJBs)
	idx := make(map[string]int, n)
	for i, e := range defaultEJBs {
		idx[e.Name] = i
	}
	s.expand = make([][]float64, n)
	var visit func(i int) []float64
	visit = func(i int) []float64 {
		if s.expand[i] != nil {
			return s.expand[i]
		}
		v := make([]float64, n)
		v[i] = 1
		for _, c := range defaultEJBs[i].CallsTo {
			sub := visit(idx[c.Callee])
			for j, x := range sub {
				v[j] += c.Count * x
			}
		}
		s.expand[i] = v
		return v
	}
	for i := range defaultEJBs {
		visit(i)
	}
	s.pathInv = make([][]float64, len(s.classes))
	for ci, c := range s.classes {
		v := make([]float64, n)
		for _, call := range c.Calls {
			sub := s.expand[idx[call.Callee]]
			for j, x := range sub {
				v[j] += call.Count * x
			}
		}
		s.pathInv[ci] = v
	}
}

// TickStats is the outcome of one simulated second.
type TickStats struct {
	Arrivals float64
	Served   float64
	Errors   float64

	ClassRate    []float64 // successful throughput per class
	ClassLatMS   []float64
	ClassErrors  []float64
	AvgLatencyMS float64
	P95LatencyMS float64

	WebUtil, AppUtil, DBCPUUtil, DBIOUtil float64
	ThreadUtil, ConnUtil                  float64
	BufferHit                             float64
	GCOverhead, HeapUsedMB                float64
	LockWaitAvgMS                         float64
	PlanSlowdownAvg                       float64

	EJBCalls     []float64
	TableQueries []float64
	TableLockMS  []float64
	TableCostOps []float64

	SLOViolations float64
	Down          bool
}

// inflation is the open-queueing latency multiplier at utilization u,
// clamped so the model stays finite at saturation (admission control sheds
// the excess).
func inflation(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 0.97 {
		u = 0.97
	}
	return 1 / (1 - u)
}

// Tick advances the service one second with the given per-class arrival
// counts (len must equal NumClasses).
func (s *Service) Tick(arrivals []float64) TickStats {
	s.clock.Advance(1)
	s.stepEnv()

	// Advance tier lifecycles: reboots, aging, crashes.
	s.Web.step()
	s.App.HeapUsedMB += s.App.LeakMBTick
	if s.App.HeapUsedMB > s.App.HeapMB {
		s.App.HeapUsedMB = s.App.HeapMB
	}
	if s.App.Up() && s.App.heapOccupancy() >= 0.985 {
		// Out-of-memory crash; reboot implicitly clears the heap below.
		s.App.Crashed = true
		s.App.DownFor = crashDowntime
	}
	s.App.step()
	if !s.App.Up() && s.App.Crashed {
		// Heap drains while the tier restarts.
		s.App.HeapUsedMB = s.cfg.BaseHeapMB
		s.App.LeakMBTick = 0
	}
	s.DB.step()
	for _, e := range s.App.ejbs {
		if e.RebootTicks > 0 {
			e.RebootTicks--
		}
	}
	for _, t := range s.DB.tables {
		t.StatsAge++
	}

	nC := len(s.classes)
	nE := len(s.App.ejbs)
	nT := len(s.DB.tables)
	// One reused backing array for every per-tick stats slice. The slice
	// fields of the returned TickStats are valid until the next Tick call;
	// consumers read them within the tick (or copy), so the hot loop pays
	// one 0.5KB clear instead of an allocation plus garbage per tick.
	backing := s.stBacking
	clear(backing)
	st := &s.last
	*st = TickStats{
		ClassRate:    backing[0:nC:nC],
		ClassLatMS:   backing[nC : 2*nC : 2*nC],
		ClassErrors:  backing[2*nC : 3*nC : 3*nC],
		EJBCalls:     backing[3*nC : 3*nC+nE : 3*nC+nE],
		TableQueries: backing[3*nC+nE : 3*nC+nE+nT : 3*nC+nE+nT],
		TableLockMS:  backing[3*nC+nE+nT : 3*nC+nE+2*nT : 3*nC+nE+2*nT],
		TableCostOps: backing[3*nC+nE+2*nT : 3*nC+nE+3*nT : 3*nC+nE+3*nT],
	}
	arrived := 0.0
	for _, a := range arrivals {
		arrived += a
	}
	st.Arrivals = arrived
	gc := s.App.gcOverhead()
	st.HeapUsedMB = s.App.HeapUsedMB
	st.GCOverhead = gc
	tt := s.current()
	st.PlanSlowdownAvg = tt.planSlowdown

	s.cmStale = true
	if !s.Web.Up() || !s.App.Up() || !s.DB.Up() {
		// Whole-service outage: every arrival is a user-visible failure.
		// No calls happen, so the call matrix reads zero.
		st.Down = true
		st.Errors = arrived
		st.SLOViolations = arrived
		for c := range s.classes {
			st.ClassErrors[c] = arrivals[c]
			st.ClassLatMS[c] = s.cfg.TimeoutMS
		}
		st.AvgLatencyMS = s.cfg.TimeoutMS
		st.P95LatencyMS = s.cfg.TimeoutMS
		return *st
	}

	// Demand accumulation. Fail-fast and hanging requests consume partial
	// work (they traverse the front tiers before dying). Database work
	// comes from ok requests only; failed ones die before or during data
	// access.
	var webDemand, appDemand, dbDemand, ioReads, ioWrites float64
	for c, class := range s.classes {
		a := arrivals[c] * s.noise()
		s.cmArrivals[c] = a
		if a <= 0 {
			continue
		}
		okA := a * tt.ok[c]
		if okA < 0 {
			okA = 0
		}
		failA := a * tt.fail[c]
		hangA := a * tt.hang[c]

		webDemand += a * class.WebOps
		invoked := okA + 0.5*failA + 0.5*hangA
		for _, ct := range tt.calls[c] {
			calls := ct.inv * invoked
			if ct.bug {
				calls *= ct.mul
			}
			st.EJBCalls[ct.ejb] += calls
		}
		for _, q := range tt.queries[c] {
			cost := q.cost * okA
			dbDemand += cost
			ioReads += q.reads * okA
			ioWrites += q.writes * okA
			st.TableQueries[q.ti] += q.inv * okA
			st.TableCostOps[q.ti] += cost
			if q.locks {
				st.TableLockMS[q.ti] += q.wait * okA
			}
		}
		appDemand += tt.appOps[c] * (okA + 0.5*failA + 0.3*hangA)
	}

	// Utilizations and admission control.
	webCap := s.Web.Capacity()
	appCap := s.App.Capacity() * (1 - gc)
	dbCPUCap := s.DB.Capacity()
	connCap := float64(s.DB.Connections) * s.cfg.DBConnOps
	missRatio := tt.missRatio
	ioDemand := ioReads*missRatio + ioWrites
	ioCap := s.DB.IOOpsPerSec

	st.WebUtil = safeDiv(webDemand, webCap)
	st.AppUtil = safeDiv(appDemand, appCap)
	st.DBCPUUtil = safeDiv(dbDemand, dbCPUCap)
	st.DBIOUtil = safeDiv(ioDemand, ioCap)
	st.ConnUtil = safeDiv(dbDemand, connCap)
	st.BufferHit = 1 - missRatio

	admit := 1.0
	for _, u := range [...]float64{st.WebUtil, st.AppUtil, st.DBCPUUtil, st.DBIOUtil, st.ConnUtil} {
		if u > 1 {
			f := 0.98 / u
			if f < admit {
				admit = f
			}
		}
	}

	// Per-class latency and outcome. The queueing inflation of each tier
	// is the same for every class.
	dbUtil := math.Max(st.DBCPUUtil, st.ConnUtil)
	netMS := s.cfg.NetHops * (s.cfg.NetLatencyMS + s.Net.ExtraLatencyMS)
	gcPauseMS := gc * 60
	webInfl, appInfl := inflation(st.WebUtil), inflation(st.AppUtil)
	dbInfl, ioInfl := inflation(dbUtil), inflation(st.DBIOUtil)
	var served, errors, violations, latSum, latWeight, busyThreadS float64
	for c := range s.classes {
		a := arrivals[c]
		if a < 0 {
			a = 0
		}
		okA := a * tt.ok[c] * admit
		if okA < 0 {
			okA = 0
		}
		shed := a*tt.ok[c] - okA

		dbMS, ioMS, lockMS := tt.dbMS[c], tt.ioMS[c], tt.lock[c]
		if s.cmArrivals[c] <= 0 {
			dbMS, ioMS, lockMS = tt.dbIdle, tt.ioIdle, 0
		}
		lat := tt.webMS[c]*webInfl + tt.appMS[c]*appInfl/(1-gc) + dbMS*dbInfl + ioMS*ioInfl + lockMS + netMS + gcPauseMS

		errs := a*tt.fail[c] + a*tt.hang[c] + shed
		if lat >= s.cfg.TimeoutMS {
			// The whole class times out: successes become failures.
			lat = s.cfg.TimeoutMS
			errs += okA
			okA = 0
		}
		if s.Net.LossRate > 0 {
			loss := math.Min(0.9, s.Net.LossRate*s.cfg.NetHops)
			errs += okA * loss
			okA *= 1 - loss
		}
		st.ClassRate[c] = okA
		st.ClassErrors[c] = errs
		st.ClassLatMS[c] = lat
		served += okA
		errors += errs
		latSum += lat * (okA + 1e-9)
		latWeight += okA + 1e-9
		busyThreadS += okA * lat / 1000
		if lat > s.cfg.SLOLatencyMS {
			violations += okA
		}
	}
	violations += errors

	// Thread occupancy: normal in-flight work plus requests parked on
	// deadlocked components for the full timeout (Little's law).
	hungThreads := 0.0
	for c := range s.classes {
		hungThreads += arrivals[c] * tt.hang[c] * s.cfg.TimeoutMS / 1000
	}
	st.ThreadUtil = (busyThreadS + hungThreads) / float64(s.App.Threads)
	if st.ThreadUtil > 1 {
		// Pool exhaustion starves every class.
		f := 1 / st.ThreadUtil
		for c := range s.classes {
			dropped := st.ClassRate[c] * (1 - f)
			st.ClassRate[c] -= dropped
			st.ClassErrors[c] += dropped
			st.ClassLatMS[c] = s.cfg.TimeoutMS
			served -= dropped
			errors += dropped
			violations += dropped
		}
		st.AvgLatencyMS = s.cfg.TimeoutMS
	} else if latWeight > 0 {
		st.AvgLatencyMS = latSum / latWeight
	}
	st.P95LatencyMS = st.AvgLatencyMS * 2.2
	st.Served, st.Errors, st.SLOViolations = served, errors, violations

	lockTotal, lockQueries := 0.0, 0.0
	for t := range st.TableLockMS {
		lockTotal += st.TableLockMS[t]
		lockQueries += st.TableQueries[t]
	}
	st.LockWaitAvgMS = safeDiv(lockTotal, lockQueries)
	return *st
}

// noise draws the per-class multiplicative demand noise for this tick.
func (s *Service) noise() float64 {
	if s.cfg.NoiseFrac <= 0 {
		return 1
	}
	n := 1 + s.rng.Normal(0, s.cfg.NoiseFrac)
	if n < 0.5 {
		n = 0.5
	}
	return n
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		if a > 0 {
			return 2 // demand against zero capacity: saturated
		}
		return 0
	}
	return a / b
}

func (s *Service) planSlowdownAvg() float64 {
	sum, n := 0.0, 0.0
	for _, t := range s.DB.tables {
		if t.StatsStale {
			sum += t.PlanSlowdown
		} else {
			sum += 1
		}
		n++
	}
	return sum / n
}

func (s *Service) ejbIndex(name string) int {
	for i, e := range s.App.ejbs {
		if e.Def.Name == name {
			return i
		}
	}
	panic("service: unknown EJB " + name)
}

func (s *Service) tableIndex(name string) int {
	for i, t := range s.DB.tables {
		if t.Def.Name == name {
			return i
		}
	}
	panic("service: unknown table " + name)
}

// Last returns the most recent tick's statistics.
func (s *Service) Last() TickStats { return s.last }

// CallMatrix returns the last tick's component call matrix: rows are
// request classes followed by EJBs (callers), columns are EJBs (callees).
// The first call after a Tick builds it from the inputs that tick saved, so
// a fix applied in between does not change it. The returned slices are
// reused between ticks; callers must copy what they keep.
func (s *Service) CallMatrix() [][]float64 {
	if s.cmStale {
		s.cmStale = false
		s.buildCallMatrix()
	}
	return s.callMatrix
}

// buildCallMatrix fills the call matrix from the last tick's saved inputs.
// Only the cells of the call topology are ever nonzero, and an outage
// leaves them all zero.
func (s *Service) buildCallMatrix() {
	clear(s.cmBacking)
	if s.last.Down {
		return
	}
	nC := len(s.classes)
	// Class → EJB direct calls. Calls into a deadlocked component are
	// still initiated (and hang); calls the request would have made after
	// the hang point never execute, so the class's call split shifts
	// toward the deadlocked callee — the deviation Example 2's χ² test
	// detects.
	for c, calls := range s.classCalls {
		cmRow := s.callMatrix[c]
		a := s.cmArrivals[c]
		if a <= 0 {
			continue
		}
		for _, call := range calls {
			ci := call.callee
			factor := 1.0
			if !s.terms.deadlocked[ci] {
				factor = 1 - 0.5*s.terms.hang[c]
			}
			cmRow[ci] += call.count * a * factor
		}
	}
	// EJB → EJB calls. A deadlocked component stops calling downstream;
	// an erroring one calls less — the signal Example 2's χ² test picks up.
	for e, calls := range s.ejbCalls {
		cmRow := s.callMatrix[nC+e]
		n := s.last.EJBCalls[e]
		if n <= 0 {
			continue
		}
		through := 1 - s.terms.errRate[e]
		if s.terms.deadlocked[e] {
			through = 0
		}
		for _, c := range calls {
			cmRow[c.callee] += c.count * n * through
		}
	}
}

// CallMatrixSupport lists the (row, col) cells of the call matrix that can
// ever be nonzero — the resolved call topology, which is fixed for the
// life of the service. Monitoring layers that retain or accumulate call
// matrices every tick can touch just these ~10% of cells instead of the
// whole dense matrix.
func (s *Service) CallMatrixSupport() [][2]int {
	nC := len(s.classes)
	var cells [][2]int
	for c, calls := range s.classCalls {
		for _, call := range calls {
			cells = append(cells, [2]int{c, call.callee})
		}
	}
	for e, calls := range s.ejbCalls {
		for _, call := range calls {
			cells = append(cells, [2]int{nC + e, call.callee})
		}
	}
	return cells
}

// CallMatrixRows returns the number of caller rows (classes + EJBs).
func (s *Service) CallMatrixRows() int { return len(s.classes) + len(s.App.ejbs) }
