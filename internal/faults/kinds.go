package faults

import (
	"selfheal/internal/catalog"
	"selfheal/internal/service"
	"selfheal/internal/workload"
)

// base carries the fields shared by all fault kinds.
type base struct {
	kind   catalog.FaultKind
	cause  catalog.Cause
	target string
}

func (b base) Kind() catalog.FaultKind { return b.kind }
func (b base) Cause() catalog.Cause    { return b.cause }
func (b base) Target() string          { return b.target }

// Deadlock hangs every request routed through one EJB (Table 1 row 1).
type Deadlock struct{ base }

// NewDeadlock builds a deadlock fault on the named EJB.
func NewDeadlock(ejb string) *Deadlock {
	return &Deadlock{base{catalog.FaultDeadlock, catalog.DefaultCause(catalog.FaultDeadlock), ejb}}
}

// CorrectFix implements Fault.
func (f *Deadlock) CorrectFix() (catalog.FixID, string) { return catalog.FixMicrorebootEJB, f.target }

// Inject implements Fault.
func (f *Deadlock) Inject(env *Env) { env.Svc.App.EJB(f.target).Deadlocked = true }

// Cleared implements Fault.
func (f *Deadlock) Cleared(env *Env) bool { return !env.Svc.App.EJB(f.target).Deadlocked }

// Clear implements Fault.
func (f *Deadlock) Clear(env *Env) { env.Svc.App.EJB(f.target).Deadlocked = false }

// Exception makes a fraction of one EJB's invocations fail fast
// (Table 1 row 2).
type Exception struct {
	base
	Rate float64
}

// NewException builds an unhandled-exception fault.
func NewException(ejb string, rate float64) *Exception {
	return &Exception{base{catalog.FaultException, catalog.DefaultCause(catalog.FaultException), ejb}, rate}
}

// CorrectFix implements Fault.
func (f *Exception) CorrectFix() (catalog.FixID, string) { return catalog.FixMicrorebootEJB, f.target }

// Inject implements Fault.
func (f *Exception) Inject(env *Env) { env.Svc.App.EJB(f.target).ErrorRate = f.Rate }

// Cleared implements Fault.
func (f *Exception) Cleared(env *Env) bool { return env.Svc.App.EJB(f.target).ErrorRate == 0 }

// Clear implements Fault.
func (f *Exception) Clear(env *Env) { env.Svc.App.EJB(f.target).ErrorRate = 0 }

// Aging leaks resources in one tier until it crashes (Table 1 row 3,
// ref [26]).
type Aging struct {
	base
	tier     catalog.Tier
	LeakRate float64 // aging level per tick
}

// NewAging builds an aging fault on the given tier.
func NewAging(tier catalog.Tier, leakRate float64) *Aging {
	return &Aging{base{catalog.FaultAging, catalog.DefaultCause(catalog.FaultAging), tier.String()}, tier, leakRate}
}

// CorrectFix implements Fault: reboot at the appropriate level.
func (f *Aging) CorrectFix() (catalog.FixID, string) { return f.tier.RebootFix(), f.tier.String() }

// Inject implements Fault.
func (f *Aging) Inject(env *Env) {
	ts := env.Svc.Tier(f.tier)
	ts.Aging.LeakRate = f.LeakRate
	if f.tier == catalog.TierApp {
		// Make the leak visible as heap growth (≈3 GB/level of the 2 GB
		// heap would crash first, so scale to reach OOM near level 1).
		env.Svc.App.LeakMBTick = f.LeakRate * env.Svc.App.HeapMB * 0.9
	}
}

// Cleared implements Fault: a reboot resets both the rate and the level.
func (f *Aging) Cleared(env *Env) bool {
	ts := env.Svc.Tier(f.tier)
	return ts.Aging.LeakRate == 0 && ts.Aging.Level < 0.05
}

// Clear implements Fault: the leak stops and what it leaked is returned,
// including the app tier's heap.
func (f *Aging) Clear(env *Env) {
	if f.Cleared(env) {
		return
	}
	env.Svc.Tier(f.tier).Aging = service.Aging{}
	if f.tier == catalog.TierApp {
		env.Svc.App.LeakMBTick = 0
		env.Svc.App.HeapUsedMB = env.Svc.Config().BaseHeapMB
	}
}

// StaleStats makes the optimizer pick a suboptimal plan for one table's
// queries (Table 1 row 4, ref [1]).
type StaleStats struct {
	base
	Slowdown float64
}

// NewStaleStats builds a stale-statistics fault.
func NewStaleStats(table string, slowdown float64) *StaleStats {
	return &StaleStats{base{catalog.FaultStaleStats, catalog.DefaultCause(catalog.FaultStaleStats), table}, slowdown}
}

// CorrectFix implements Fault.
func (f *StaleStats) CorrectFix() (catalog.FixID, string) { return catalog.FixUpdateStats, f.target }

// Inject implements Fault.
func (f *StaleStats) Inject(env *Env) {
	t := env.Svc.DB.Table(f.target)
	t.StatsStale = true
	t.PlanSlowdown = f.Slowdown
}

// Cleared implements Fault.
func (f *StaleStats) Cleared(env *Env) bool { return !env.Svc.DB.Table(f.target).StatsStale }

// Clear implements Fault: the planner ignores PlanSlowdown once the
// statistics are fresh.
func (f *StaleStats) Clear(env *Env) { env.Svc.DB.Table(f.target).StatsStale = false }

// BlockContention adds read/write contention on one table's hot block
// (Table 1 row 5, ref [12]).
type BlockContention struct {
	base
	WaitMS float64
}

// NewBlockContention builds a hot-block contention fault.
func NewBlockContention(table string, waitMS float64) *BlockContention {
	return &BlockContention{base{catalog.FaultBlockContention, catalog.DefaultCause(catalog.FaultBlockContention), table}, waitMS}
}

// CorrectFix implements Fault.
func (f *BlockContention) CorrectFix() (catalog.FixID, string) {
	return catalog.FixRepartitionTable, f.target
}

// Inject implements Fault.
func (f *BlockContention) Inject(env *Env) { env.Svc.DB.Table(f.target).Contention = f.WaitMS }

// Cleared implements Fault.
func (f *BlockContention) Cleared(env *Env) bool { return env.Svc.DB.Table(f.target).Contention == 0 }

// Clear implements Fault.
func (f *BlockContention) Clear(env *Env) { env.Svc.DB.Table(f.target).Contention = 0 }

// BufferContention shrinks the effective database buffer allocation
// (Table 1 row 6, ref [24]).
type BufferContention struct {
	base
	FractionLost float64
}

// NewBufferContention builds a buffer contention fault.
func NewBufferContention(fractionLost float64) *BufferContention {
	return &BufferContention{base{catalog.FaultBufferContention, catalog.DefaultCause(catalog.FaultBufferContention), "bufferpool"}, fractionLost}
}

// CorrectFix implements Fault.
func (f *BufferContention) CorrectFix() (catalog.FixID, string) {
	return catalog.FixRepartitionMemory, ""
}

// Inject implements Fault.
func (f *BufferContention) Inject(env *Env) {
	b := &env.Svc.DB.Buffer
	b.EffectiveMB = b.ConfiguredMB * (1 - f.FractionLost)
}

// Cleared implements Fault.
func (f *BufferContention) Cleared(env *Env) bool {
	b := &env.Svc.DB.Buffer
	return b.EffectiveMB >= b.ConfiguredMB*0.95
}

// Clear implements Fault.
func (f *BufferContention) Clear(env *Env) {
	if !f.Cleared(env) {
		env.Svc.DB.Buffer.Rebalance()
	}
}

// Bottleneck drives offered load past one tier's capacity (Table 1 row 7,
// ref [25]). It manipulates the workload generator rather than the service.
type Bottleneck struct {
	base
	tier     catalog.Tier
	Factor   float64
	Duration int64
	// surge is the load this fault added; its End closes the fault's
	// clearance window, early when Clear withdraws it.
	surge workload.Surge
}

// NewBottleneck builds a load-surge fault stressing the given tier.
func NewBottleneck(tier catalog.Tier, factor float64, duration int64) *Bottleneck {
	return &Bottleneck{
		base:     base{catalog.FaultBottleneck, catalog.DefaultCause(catalog.FaultBottleneck), tier.String()},
		tier:     tier,
		Factor:   factor,
		Duration: duration,
	}
}

// CorrectFix implements Fault.
func (f *Bottleneck) CorrectFix() (catalog.FixID, string) {
	return catalog.FixProvisionTier, f.tier.String()
}

// surgeClasses picks the request classes that stress each tier hardest.
func surgeClasses(tier catalog.Tier) []int {
	names := service.ClassNames()
	pick := func(want ...string) []int {
		var out []int
		for i, n := range names {
			for _, w := range want {
				if n == w {
					out = append(out, i)
				}
			}
		}
		return out
	}
	switch tier {
	case catalog.TierWeb:
		// Flash crowd on static content and the landing page.
		return pick("About", "Home")
	case catalog.TierApp:
		// Session-heavy classes: registration storms, profile views.
		return pick("Register", "ViewUser")
	default:
		// Analytic search traffic scans the database.
		return pick("Search")
	}
}

// Inject implements Fault.
func (f *Bottleneck) Inject(env *Env) {
	start := env.Svc.Now()
	f.surge = workload.Surge{
		Start:   start,
		End:     start + f.Duration,
		Factor:  f.Factor,
		Classes: surgeClasses(f.tier),
	}
	env.Gen.AddSurge(f.surge)
}

// Cleared implements Fault: the bottleneck is gone when the surge expired
// or the tier has been provisioned enough to absorb it.
func (f *Bottleneck) Cleared(env *Env) bool {
	if env.Svc.Now() >= f.surge.End {
		return true
	}
	st := env.Svc.Last()
	var u float64
	switch f.tier {
	case catalog.TierWeb:
		u = st.WebUtil
	case catalog.TierApp:
		u = st.AppUtil
		if st.ThreadUtil > u {
			u = st.ThreadUtil
		}
	default:
		u = st.DBCPUUtil
		for _, x := range []float64{st.DBIOUtil, st.ConnUtil} {
			if x > u {
				u = x
			}
		}
	}
	return u < 0.88 && !st.Down
}

// Clear implements Fault: the surge ends now, in the generator and in the
// fault's own clearance window.
func (f *Bottleneck) Clear(env *Env) {
	if f.Cleared(env) {
		return
	}
	now := env.Svc.Now()
	env.Gen.EndSurge(f.surge, now)
	f.surge.End = now
}

// CodeBug is a persistent application defect (Table 1 row 8): its error
// state survives microreboots, and a tier restart masks it.
type CodeBug struct {
	base
	Rate float64
}

// NewCodeBug builds a source-code-bug fault on the named EJB.
func NewCodeBug(ejb string, rate float64) *CodeBug {
	return &CodeBug{base: base{catalog.FaultCodeBug, catalog.DefaultCause(catalog.FaultCodeBug), ejb}, Rate: rate}
}

// CorrectFix implements Fault: Table 1 prescribes "Reboot tier/service,
// notify administrator".
func (f *CodeBug) CorrectFix() (catalog.FixID, string) {
	return catalog.FixRebootAppTier, catalog.TierApp.String()
}

// Inject implements Fault.
func (f *CodeBug) Inject(env *Env) { env.Svc.App.EJB(f.target).BugErrorRate = f.Rate }

// Cleared implements Fault.
func (f *CodeBug) Cleared(env *Env) bool { return env.Svc.App.EJB(f.target).BugErrorRate == 0 }

// Clear implements Fault.
func (f *CodeBug) Clear(env *Env) { env.Svc.App.EJB(f.target).BugErrorRate = 0 }

// OperatorConfig is an operator misconfiguration (the dominant Figure 1
// cause).
type OperatorConfig struct {
	base
	Knob     service.OperatorKnob
	Severity float64
}

// NewOperatorConfig builds an operator-error fault. target names a table
// for the dropped-index knob and is ignored otherwise.
func NewOperatorConfig(knob service.OperatorKnob, target string, severity float64) *OperatorConfig {
	return &OperatorConfig{base{catalog.FaultOperatorConfig, catalog.CauseOperator, target}, knob, severity}
}

// CorrectFix implements Fault.
func (f *OperatorConfig) CorrectFix() (catalog.FixID, string) { return catalog.FixRestoreConfig, "" }

// Inject implements Fault.
func (f *OperatorConfig) Inject(env *Env) { env.Svc.BreakConfig(f.Knob, f.target, f.Severity) }

// Cleared implements Fault: checks the actual service state so that an
// alternative fix (e.g. rebuilding the dropped index) also counts.
func (f *OperatorConfig) Cleared(env *Env) bool {
	svc := env.Svc
	good := svc.Config()
	switch f.Knob {
	case service.KnobSmallThreadPool:
		return svc.App.Threads >= good.AppThreads
	case service.KnobSmallConnPool:
		return svc.DB.Connections >= good.DBConnections
	case service.KnobRoutingSkew:
		return svc.Web.RoutingSkew == 0 && svc.App.RoutingSkew == 0
	case service.KnobDroppedIndex:
		return !svc.DB.Table(f.target).IndexDropped
	case service.KnobSmallBuffer:
		return svc.DB.Buffer.EffectiveMB >= good.BufferMB*0.95
	default:
		return true
	}
}

// Clear implements Fault: only this fault's knob goes back to its
// known-good setting.
func (f *OperatorConfig) Clear(env *Env) {
	if !f.Cleared(env) {
		env.Svc.RestoreKnob(f.Knob, f.target)
	}
}

// Hardware takes nodes of one tier out of service.
type Hardware struct {
	base
	tier  catalog.Tier
	Nodes int
	// taken counts the nodes this fault holds down; withdrawn marks them
	// given back by Clear, while other faults may still hold the tier's
	// remaining failed nodes.
	taken     int
	withdrawn bool
}

// NewHardware builds a hardware-failure fault.
func NewHardware(tier catalog.Tier, nodes int) *Hardware {
	return &Hardware{base: base{catalog.FaultHardware, catalog.CauseHardware, tier.String()}, tier: tier, Nodes: nodes}
}

// CorrectFix implements Fault.
func (f *Hardware) CorrectFix() (catalog.FixID, string) {
	return catalog.FixFailoverNode, f.tier.String()
}

// Inject implements Fault.
func (f *Hardware) Inject(env *Env) {
	ts := env.Svc.Tier(f.tier)
	if ts.NodesDown == 0 {
		f.taken = 0 // a failover gave every node back
	}
	down := min(ts.NodesDown+f.Nodes, ts.Nodes-1) // at least one node limps on
	f.taken += down - ts.NodesDown
	ts.NodesDown = down
	f.withdrawn = false
}

// Cleared implements Fault.
func (f *Hardware) Cleared(env *Env) bool {
	return f.withdrawn || env.Svc.Tier(f.tier).NodesDown == 0
}

// Clear implements Fault: only the nodes this fault took come back.
func (f *Hardware) Clear(env *Env) {
	if f.Cleared(env) {
		return
	}
	ts := env.Svc.Tier(f.tier)
	ts.NodesDown = max(ts.NodesDown-f.taken, 0)
	f.taken = 0
	f.withdrawn = true
}

// Network degrades inter-tier networking.
type Network struct {
	base
	LatencyMS float64
	Loss      float64
}

// NewNetwork builds a network-degradation fault.
func NewNetwork(latencyMS, loss float64) *Network {
	return &Network{base{catalog.FaultNetwork, catalog.CauseNetwork, "interconnect"}, latencyMS, loss}
}

// CorrectFix implements Fault: re-route around the bad link at the front
// tier.
func (f *Network) CorrectFix() (catalog.FixID, string) {
	return catalog.FixFailoverNode, catalog.TierWeb.String()
}

// Inject implements Fault.
func (f *Network) Inject(env *Env) {
	env.Svc.Net.ExtraLatencyMS = f.LatencyMS
	env.Svc.Net.LossRate = f.Loss
}

// Cleared implements Fault.
func (f *Network) Cleared(env *Env) bool {
	return env.Svc.Net.ExtraLatencyMS == 0 && env.Svc.Net.LossRate == 0
}

// Clear implements Fault.
func (f *Network) Clear(env *Env) {
	env.Svc.Net.ExtraLatencyMS = 0
	env.Svc.Net.LossRate = 0
}
