package service

import (
	"fmt"
	"math"

	"selfheal/internal/catalog"
)

// This file holds the recovery mechanisms of Table 1. The paper observes
// there are "many mechanisms readily available for fast recovery" but "a
// dearth of suitable policies to invoke these mechanisms"; these methods are
// the mechanisms, and internal/core supplies the policies.

// MicrorebootEJB microreboots the named component (ref [6]): a fine-grained
// reboot orders of magnitude faster than a full restart. Transient component
// state (deadlocks, exception state) clears; source-code bugs persist.
func (s *Service) MicrorebootEJB(name string) {
	s.App.EJB(name).Microreboot()
}

// KillHungQuery kills in-flight work stuck in the database. It releases the
// threads parked behind a deadlocked component this tick, but does not clear
// the deadlock itself — so symptoms return unless the deadlock was the
// transient kind. Modeled as a brief, partial relief.
func (s *Service) KillHungQuery() {
	// Release the parked threads by pretending hung requests finished now:
	// one tick of relief; the deadlock state remains.
	for _, e := range s.App.ejbs {
		if e.Deadlocked {
			e.RebootTicks = 1 // momentary unavailability while queries die
		}
	}
}

// RebootTier restarts the given tier with its characteristic downtime.
// Restart clears aging, deadlocks, exception state and (temporarily) the
// symptoms of source-code bugs in that tier.
func (s *Service) RebootTier(t catalog.Tier) {
	switch t {
	case catalog.TierWeb:
		s.Web.Reboot(20)
	case catalog.TierApp:
		s.App.Reboot(30)
		s.App.HeapUsedMB = s.cfg.BaseHeapMB
		s.App.LeakMBTick = 0
		for _, e := range s.App.ejbs {
			// Deadlocks survive whole-tier restarts: the lock-ordering
			// collision re-establishes as soon as the same workload
			// returns. Only a targeted microreboot re-initializes the
			// component's acquisition order — which is why Table 1 lists
			// microreboot/kill-query, not reboots, for deadlocked threads.
			e.ErrorRate = 0
			e.BugErrorRate = 0 // masked until the bug relapses
		}
	case catalog.TierDB:
		s.DB.Reboot(60)
	}
}

// FullRestart restarts every tier — the paper's "general costly fix" applied
// when the healing loop exhausts its threshold.
func (s *Service) FullRestart() {
	s.RebootTier(catalog.TierWeb)
	s.RebootTier(catalog.TierApp)
	s.RebootTier(catalog.TierDB)
	// The whole service is down for the longest tier restart plus
	// coordination overhead.
	s.DB.DownFor = 120
	s.App.DownFor = 120
	s.Web.DownFor = 120
}

// UpdateStats refreshes optimizer statistics on the named table (ref [1]):
// the planner re-picks a good plan and the stale-stats slowdown disappears.
func (s *Service) UpdateStats(table string) {
	t := s.DB.Table(table)
	t.StatsAge = 0
	t.StatsStale = false
	t.PlanSlowdown = 1
}

// RepartitionTable repartitions the named table to balance block accesses
// across partitions (ref [12]), clearing hot-block contention.
func (s *Service) RepartitionTable(table string) {
	s.DB.Table(table).Contention = 0
}

// RepartitionMemory rebalances memory across the database buffers
// (ref [24]), restoring the configured buffer allocation.
func (s *Service) RepartitionMemory() {
	s.DB.Buffer.Rebalance()
}

// MaxProvisionGrowth bounds dynamic provisioning: a tier's nodes, and the
// database's disk capability and connection slots, grow to at most this many
// times their configured size, and no count past 2^52. A runaway campaign
// replica's first 250 episodes peak near 5.1e11 database nodes, below the
// bound; without it the compounding growth reaches 8e18 within 2,000
// episodes, where Go leaves the conversion back to an int
// implementation-dependent.
const MaxProvisionGrowth = 1 << 40

// provisionLimit is the largest count provisioning may grow a configured
// size of n to.
func provisionLimit(n float64) float64 {
	return math.Min(math.Max(n, 1)*MaxProvisionGrowth, 1<<52)
}

// ProvisionTier adds capacity to the named tier, sizing to the measured
// demand the way dynamic provisioning systems do (ref [25]): enough nodes
// to bring the tier back to a ~65% operating point, with a minimum growth
// of half the current fleet, up to MaxProvisionGrowth times the configured
// size.
func (s *Service) ProvisionTier(t catalog.Tier) {
	ts := s.Tier(t)
	var util float64
	var configured int
	switch t {
	case catalog.TierWeb:
		util, configured = s.last.WebUtil, s.cfg.WebNodes
	case catalog.TierApp:
		util, configured = math.Max(s.last.AppUtil, s.last.ThreadUtil), s.cfg.AppNodes
	default:
		util, configured = math.Max(s.last.DBCPUUtil, math.Max(s.last.DBIOUtil, s.last.ConnUtil)), s.cfg.DBNodes
	}
	grow := util / 0.65
	if !(grow >= 1.5) {
		grow = 1.5
	}
	nodes := float64(ts.Nodes)
	want := math.Min(math.Max(math.Ceil(nodes*grow), nodes+1), provisionLimit(float64(configured)))
	if !(want > nodes) {
		return // at the bound
	}
	actual := want / nodes
	ts.Nodes = int(want)
	if t == catalog.TierDB {
		// Database nodes bring their own disks and connection slots.
		s.DB.IOOpsPerSec = math.Min(s.DB.IOOpsPerSec*actual, s.cfg.IOOpsPerSec*MaxProvisionGrowth)
		s.DB.Connections = int(math.Min(float64(s.DB.Connections)*actual, provisionLimit(float64(s.cfg.DBConnections))))
	}
}

// RebuildIndex rebuilds the named table's index.
func (s *Service) RebuildIndex(table string) {
	s.DB.Table(table).IndexDropped = false
}

// FailoverNode replaces failed hardware in the named tier and re-routes
// around network trouble.
func (s *Service) FailoverNode(t catalog.Tier) {
	ts := s.Tier(t)
	ts.NodesDown = 0
	s.Net.ExtraLatencyMS = 0
	s.Net.LossRate = 0
}

// BreakConfig applies an operator misconfiguration. target names a table
// for KnobDroppedIndex and is ignored otherwise. severity in (0,1] scales
// how wrong the setting is.
func (s *Service) BreakConfig(knob OperatorKnob, target string, severity float64) {
	if severity <= 0 {
		severity = 0.5
	}
	if severity > 1 {
		severity = 1
	}
	s.brokenKnob = knob
	s.knobTarget = target
	switch knob {
	case KnobSmallThreadPool:
		// A staging-sized pool: far below what the production workload's
		// concurrency (Little's law: rate × latency) needs.
		s.App.Threads = int(float64(s.goodConfig.AppThreads) * 0.05 * (1.3 - severity))
		if s.App.Threads < 2 {
			s.App.Threads = 2
		}
	case KnobSmallConnPool:
		// Likewise for database connections: capped below offered load.
		s.DB.Connections = int(float64(s.goodConfig.DBConnections) * 0.04 * (1.3 - severity))
		if s.DB.Connections < 1 {
			s.DB.Connections = 1
		}
	case KnobRoutingSkew:
		s.Web.RoutingSkew = 0.6 * severity
		s.App.RoutingSkew = 0.4 * severity
	case KnobDroppedIndex:
		s.DB.Table(target).IndexDropped = true
	case KnobSmallBuffer:
		s.DB.Buffer.EffectiveMB = s.goodConfig.BufferMB * (1 - 0.8*severity)
	default:
		panic(fmt.Sprintf("service: unknown operator knob %d", int(knob)))
	}
}

// RestoreKnob reverts one operator misconfiguration to the known-good
// configuration and leaves every other setting as it is. target names the
// table for KnobDroppedIndex, as in BreakConfig.
func (s *Service) RestoreKnob(knob OperatorKnob, target string) {
	switch knob {
	case KnobSmallThreadPool:
		s.App.Threads = s.goodConfig.AppThreads
	case KnobSmallConnPool:
		s.DB.Connections = s.goodConfig.DBConnections
	case KnobRoutingSkew:
		s.Web.RoutingSkew = 0
		s.App.RoutingSkew = 0
	case KnobDroppedIndex:
		s.DB.Table(target).IndexDropped = false
	case KnobSmallBuffer:
		s.DB.Buffer.EffectiveMB = s.goodConfig.BufferMB
	}
	if s.brokenKnob == knob && s.knobTarget == target {
		s.brokenKnob = KnobNone
		s.knobTarget = ""
	}
}

// RestoreConfig reverts every operator misconfiguration to the last
// known-good configuration.
func (s *Service) RestoreConfig() {
	for _, k := range []OperatorKnob{KnobSmallThreadPool, KnobSmallConnPool, KnobRoutingSkew, KnobSmallBuffer} {
		s.RestoreKnob(k, "")
	}
	if s.brokenKnob == KnobDroppedIndex && s.knobTarget != "" {
		s.RestoreKnob(KnobDroppedIndex, s.knobTarget)
	}
	s.brokenKnob = KnobNone
	s.knobTarget = ""
}
