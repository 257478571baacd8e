package service

import (
	"fmt"

	"selfheal/internal/catalog"
)

// This file holds the mutable state of the three tiers. Faults perturb these
// fields (via internal/faults) and fixes restore them (via internal/fixes);
// the per-tick flow computation in service.go only reads them.

// Aging models software aging (Table 1, ref [26]): Level grows by LeakRate
// per tick and degrades the tier; at Level ≥ 1 the tier crashes and stays
// down until rebooted.
type Aging struct {
	LeakRate float64 // level added per tick
	Level    float64 // 0 = fresh, 1 = crashed
}

// step advances aging one tick and reports whether the tier just crashed.
func (a *Aging) step() bool {
	if a.LeakRate <= 0 {
		return false
	}
	before := a.Level
	a.Level += a.LeakRate
	if a.Level > 1 {
		a.Level = 1
	}
	return before < 1 && a.Level >= 1
}

// capacityFactor returns the multiplicative capacity loss from aging.
func (a *Aging) capacityFactor() float64 {
	f := 1 - 0.6*a.Level
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// TierState is the state every tier shares: node counts, aging, downtime.
type TierState struct {
	Tier       catalog.Tier
	Nodes      int // provisioned nodes
	NodesDown  int // nodes lost to hardware faults
	OpsPerNode float64
	Aging      Aging
	DownFor    int64 // remaining reboot/crash downtime ticks (0 = up)
	Crashed    bool  // down due to aging crash rather than planned reboot

	// RoutingSkew in [0,1) models an operator misconfiguration of the load
	// balancer: a fraction of capacity effectively wasted because load is
	// routed unevenly across the tier's nodes.
	RoutingSkew float64
}

// Up reports whether the tier is serving.
func (t *TierState) Up() bool { return t.DownFor == 0 }

// UpNodes returns the number of nodes currently in service. A tier that is
// down (rebooting or crashed) serves from zero nodes, which is also what
// its node-count gauge reports — the signal that attributes an outage to a
// specific tier.
func (t *TierState) UpNodes() int {
	if !t.Up() {
		return 0
	}
	n := t.Nodes - t.NodesDown
	if n < 0 {
		n = 0
	}
	return n
}

// Capacity returns current effective capacity in ops/tick.
func (t *TierState) Capacity() float64 {
	if !t.Up() {
		return 0
	}
	c := float64(t.UpNodes()) * t.OpsPerNode * t.Aging.capacityFactor()
	return c * (1 - t.RoutingSkew)
}

// Reboot takes the tier down for d ticks and clears aging and crash state.
// Rejuvenation also stops the leak: a fresh process image starts leaking
// again only if a new aging fault strikes.
func (t *TierState) Reboot(d int64) {
	if d < 1 {
		d = 1
	}
	t.DownFor = d
	t.Crashed = false
	t.Aging.Level = 0
	t.Aging.LeakRate = 0
}

// step advances downtime/aging bookkeeping one tick.
func (t *TierState) step() {
	if t.DownFor > 0 {
		t.DownFor--
		return
	}
	if t.Aging.step() {
		t.Crashed = true
		t.DownFor = crashDowntime
	}
}

const crashDowntime = 90 // ticks a tier stays down after an aging crash

// EJB is the runtime state of one application component.
type EJB struct {
	Def EJBDef

	// Deadlocked marks the component's threads as mutually blocked:
	// requests routed through it hang until the request timeout.
	Deadlocked bool
	// ErrorRate is the fraction of invocations failing fast with an
	// unhandled exception (Table 1 row 2). Cleared by a microreboot.
	ErrorRate float64
	// BugErrorRate models a source-code bug (Table 1 row 8): like
	// ErrorRate but it survives microreboots; only a tier restart clears
	// the accumulated bad state (and, without a patch, it may relapse).
	BugErrorRate float64
	// RebootTicks is the remaining microreboot downtime for this component.
	RebootTicks int64
}

// effectiveErrorRate combines exception and bug error rates.
func (e *EJB) effectiveErrorRate() float64 {
	r := 1 - (1-e.ErrorRate)*(1-e.BugErrorRate)
	if e.RebootTicks > 0 {
		return 1 // component unavailable while microrebooting
	}
	return r
}

// Microreboot resets the component's transient state (ref [6]): deadlocks
// and unhandled-exception state clear; source-code bugs do not.
func (e *EJB) Microreboot() {
	e.Deadlocked = false
	e.ErrorRate = 0
	e.RebootTicks = 1
}

// Table is the runtime state of one database table.
type Table struct {
	Def TableDef

	// StatsAge counts ticks since optimizer statistics were refreshed,
	// and StatsStale marks them stale enough that the planner has picked
	// a suboptimal plan with the given slowdown (Table 1 row 4).
	StatsAge     int64
	StatsStale   bool
	PlanSlowdown float64 // ≥ 1; multiplies query cost when StatsStale

	// Contention is the per-write lock wait in milliseconds caused by
	// read/write contention on a hot block (Table 1 row 5). Repartitioning
	// the table clears it.
	Contention float64

	// IndexDropped marks the table's index as missing (an operator
	// mistake); selective queries degrade to scans until it is rebuilt.
	IndexDropped bool
}

// QueryCost returns the database CPU demand of one query against the table,
// in tier capacity units.
func (t *Table) QueryCost(q QueryDef) float64 {
	reads := q.Reads
	if q.Selective && (!t.Def.HasIndex || t.IndexDropped) {
		reads *= scanPenalty
	}
	cost := queryFixedCost + readCost*reads + writeCost*q.Writes
	if t.StatsStale && t.PlanSlowdown > 1 {
		cost *= t.PlanSlowdown
	}
	return cost
}

// EffectiveReads returns the logical rows read, after plan degradation, used
// for buffer-pool accounting.
func (t *Table) EffectiveReads(q QueryDef) float64 {
	reads := q.Reads
	if q.Selective && (!t.Def.HasIndex || t.IndexDropped) {
		reads *= scanPenalty
	}
	if t.StatsStale && t.PlanSlowdown > 1 {
		reads *= t.PlanSlowdown
	}
	return reads
}

const (
	queryFixedCost = 0.20  // per-query overhead in DB capacity units
	readCost       = 0.004 // per row read
	writeCost      = 0.03  // per row written
	scanPenalty    = 12.0  // selective query without its index
)

// BufferPool models the database buffer cache (Table 1 row 6).
type BufferPool struct {
	ConfiguredMB float64
	// EffectiveMB is the memory actually serving the workload; buffer
	// contention faults or operator misconfiguration shrink it.
	EffectiveMB float64
}

// MissRatio returns the fraction of logical reads that go to disk given the
// total working set of the tables.
func (b *BufferPool) MissRatio(workingSetMB float64) float64 {
	if workingSetMB <= 0 {
		return 0.02
	}
	adequacy := b.EffectiveMB / workingSetMB
	if adequacy > 1 {
		adequacy = 1
	}
	m := 0.02 + 0.45*(1-adequacy)
	if m > 0.6 {
		m = 0.6
	}
	return m
}

// Rebalance restores the configured allocation (the repartition-memory fix,
// ref [24]).
func (b *BufferPool) Rebalance() { b.EffectiveMB = b.ConfiguredMB }

// WebTier is the presentation tier.
type WebTier struct {
	TierState
	Threads int
}

// AppTier is the application (EJB) tier.
type AppTier struct {
	TierState
	Threads int
	HeapMB  float64
	// HeapUsedMB grows with leaks; GC overhead rises with occupancy and the
	// tier crashes at ~full heap (handled through TierState.Aging, which is
	// driven from heap occupancy for this tier).
	HeapUsedMB float64
	LeakMBTick float64 // heap leaked per tick (aging fault)

	ejbs  []*EJB
	byEJB map[string]*EJB
}

// EJB returns the named component.
func (a *AppTier) EJB(name string) *EJB {
	e, ok := a.byEJB[name]
	if !ok {
		panic(fmt.Sprintf("service: unknown EJB %q", name))
	}
	return e
}

// heapOccupancy returns heap fullness in [0,1].
func (a *AppTier) heapOccupancy() float64 {
	if a.HeapMB <= 0 {
		return 0
	}
	occ := a.HeapUsedMB / a.HeapMB
	if occ > 1 {
		occ = 1
	}
	return occ
}

// gcOverhead returns the fraction of app CPU consumed by garbage collection
// at the current heap occupancy.
func (a *AppTier) gcOverhead() float64 {
	occ := a.heapOccupancy()
	over := 0.03
	if occ > 0.7 {
		over += 0.6 * (occ - 0.7) / 0.3
	}
	if over > 0.65 {
		over = 0.65
	}
	return over
}

// DBTier is the database tier.
type DBTier struct {
	TierState
	Connections int
	IOOpsPerSec float64
	Buffer      BufferPool

	tables  []*Table
	byTable map[string]*Table
}

// Table returns the named table.
func (d *DBTier) Table(name string) *Table {
	t, ok := d.byTable[name]
	if !ok {
		panic(fmt.Sprintf("service: unknown table %q", name))
	}
	return t
}

// workingSetMB sums the working sets of all tables.
func (d *DBTier) workingSetMB() float64 {
	s := 0.0
	for _, t := range d.tables {
		s += t.Def.WorkingSetMB
	}
	return s
}
