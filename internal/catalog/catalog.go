// Package catalog is the shared vocabulary of the self-healing stack: the
// failure kinds and candidate fixes of the paper's Table 1, the failure
// cause categories of its Figure 1 (after Oppenheimer et al. [18]), and the
// static fault→candidate-fix map that both the fault injector and the
// diagnosis approaches consult.
//
// Keeping these identifiers in one dependency-free package lets the fault
// model, the targets' fixes and the learning approaches agree on labels
// without importing each other.
package catalog

import (
	"fmt"
	"strings"
)

// FaultKind enumerates the failure types of Table 1 plus the extra
// cause-category faults needed for the Figure 1/2 campaign.
type FaultKind int

const (
	// FaultNone is the zero value; no fault.
	FaultNone FaultKind = iota
	// FaultDeadlock is "Deadlocked threads" — an EJB whose threads are
	// mutually blocked, hanging every request routed through it.
	FaultDeadlock
	// FaultException is "Java exceptions not handled correctly" — an EJB
	// erroring out a fraction of its invocations.
	FaultException
	// FaultAging is resource leakage (software aging, ref [26]) in a tier.
	FaultAging
	// FaultStaleStats is "Suboptimal query plan" caused by stale optimizer
	// statistics on a table.
	FaultStaleStats
	// FaultBlockContention is "Read/write contention on table block".
	FaultBlockContention
	// FaultBufferContention is "Buffer contention" — a misconfigured or
	// pressured database buffer pool.
	FaultBufferContention
	// FaultBottleneck is "Bottlenecked tier" — offered load exceeding the
	// provisioned capacity of one tier.
	FaultBottleneck
	// FaultCodeBug is "Source code bug" — a persistent application defect
	// that survives microreboots.
	FaultCodeBug
	// FaultOperatorConfig is an operator-induced misconfiguration (wrong
	// pool sizing, dropped index, bad routing weight) — the dominant cause
	// category in the paper's Figure 1.
	FaultOperatorConfig
	// FaultHardware is a degraded or failed hardware component (e.g. a
	// disk slowing down or a node dropping out of a tier).
	FaultHardware
	// FaultNetwork is packet loss / latency between tiers.
	FaultNetwork
	numFaultKinds
)

// FaultKinds lists every real fault kind (excluding FaultNone).
func FaultKinds() []FaultKind {
	out := make([]FaultKind, 0, int(numFaultKinds)-1)
	for k := FaultDeadlock; k < numFaultKinds; k++ {
		out = append(out, k)
	}
	return out
}

// String returns the canonical name of the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDeadlock:
		return "deadlocked-threads"
	case FaultException:
		return "unhandled-exception"
	case FaultAging:
		return "aging"
	case FaultStaleStats:
		return "stale-statistics"
	case FaultBlockContention:
		return "block-contention"
	case FaultBufferContention:
		return "buffer-contention"
	case FaultBottleneck:
		return "bottlenecked-tier"
	case FaultCodeBug:
		return "source-code-bug"
	case FaultOperatorConfig:
		return "operator-misconfiguration"
	case FaultHardware:
		return "hardware-degradation"
	case FaultNetwork:
		return "network-degradation"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// ParseFaultKind resolves a canonical fault-kind name (the String form,
// e.g. "aging", "hardware-degradation") back to its FaultKind — the
// decoder side of scenario files and other textual front ends.
func ParseFaultKind(name string) (FaultKind, error) {
	for _, k := range FaultKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	valid := make([]string, 0, int(numFaultKinds)-1)
	for _, k := range FaultKinds() {
		valid = append(valid, k.String())
	}
	return FaultNone, fmt.Errorf("catalog: unknown fault kind %q (valid: %s)", name, strings.Join(valid, ", "))
}

// ParseTier resolves a tier's short name ("web", "app", "db") back to its
// Tier.
func ParseTier(name string) (Tier, error) {
	for _, t := range Tiers() {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("catalog: unknown tier %q (valid: web, app, db)", name)
}

// FixID enumerates the candidate fixes of Table 1.
type FixID int

const (
	// FixNone is the zero value; no fix.
	FixNone FixID = iota
	// FixMicrorebootEJB microreboots one application component (ref [6]).
	FixMicrorebootEJB
	// FixKillHungQuery kills a hung/runaway database query.
	FixKillHungQuery
	// FixRebootWebTier restarts the web tier.
	FixRebootWebTier
	// FixRebootAppTier restarts the application tier (reclaims leaks).
	FixRebootAppTier
	// FixRebootDBTier restarts the database tier.
	FixRebootDBTier
	// FixUpdateStats refreshes optimizer statistics for a table (ref [1]).
	FixUpdateStats
	// FixRepartitionTable repartitions a table to balance block accesses
	// (ref [12]).
	FixRepartitionTable
	// FixRepartitionMemory rebalances memory across database buffers
	// (ref [24]).
	FixRepartitionMemory
	// FixProvisionTier adds capacity to a bottlenecked tier (ref [25]).
	FixProvisionTier
	// FixRebuildIndex rebuilds a damaged or dropped index.
	FixRebuildIndex
	// FixRestoreConfig reverts an operator misconfiguration to the last
	// known-good configuration.
	FixRestoreConfig
	// FixFailoverNode replaces a degraded hardware node in a tier.
	FixFailoverNode
	// FixFullRestart restarts the whole service — the paper's "general
	// costly fix" of last resort.
	FixFullRestart
	// FixNotifyAdmin escalates to a human administrator; recovery then
	// happens at human timescale.
	FixNotifyAdmin
	numFixIDs
)

// FixIDs lists every real fix (excluding FixNone).
func FixIDs() []FixID {
	out := make([]FixID, 0, int(numFixIDs)-1)
	for f := FixMicrorebootEJB; f < numFixIDs; f++ {
		out = append(out, f)
	}
	return out
}

// String returns the canonical name of the fix.
func (f FixID) String() string {
	switch f {
	case FixNone:
		return "none"
	case FixMicrorebootEJB:
		return "microreboot-ejb"
	case FixKillHungQuery:
		return "kill-hung-query"
	case FixRebootWebTier:
		return "reboot-web-tier"
	case FixRebootAppTier:
		return "reboot-app-tier"
	case FixRebootDBTier:
		return "reboot-db-tier"
	case FixUpdateStats:
		return "update-statistics"
	case FixRepartitionTable:
		return "repartition-table"
	case FixRepartitionMemory:
		return "repartition-memory"
	case FixProvisionTier:
		return "provision-tier"
	case FixRebuildIndex:
		return "rebuild-index"
	case FixRestoreConfig:
		return "restore-configuration"
	case FixFailoverNode:
		return "failover-node"
	case FixFullRestart:
		return "full-service-restart"
	case FixNotifyAdmin:
		return "notify-administrator"
	default:
		return fmt.Sprintf("fix(%d)", int(f))
	}
}

// Cause categorizes failures the way the paper's Figure 1 does (following
// Oppenheimer et al. [18]): by the component of the socio-technical system
// that caused them.
type Cause int

const (
	// CauseUnknown is an undiagnosed root cause.
	CauseUnknown Cause = iota
	// CauseOperator is human operator error — the most prominent source of
	// failures in Figure 1.
	CauseOperator
	// CauseSoftware is an application or middleware defect.
	CauseSoftware
	// CauseHardware is failed or degraded hardware.
	CauseHardware
	// CauseNetwork is a network problem.
	CauseNetwork
	numCauses
)

// Causes lists every cause category, CauseUnknown last for display order.
func Causes() []Cause {
	return []Cause{CauseOperator, CauseSoftware, CauseHardware, CauseNetwork, CauseUnknown}
}

// String returns the display name of the cause.
func (c Cause) String() string {
	switch c {
	case CauseOperator:
		return "operator"
	case CauseSoftware:
		return "software"
	case CauseHardware:
		return "hardware"
	case CauseNetwork:
		return "network"
	case CauseUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Tier identifies one tier of the multitier service.
type Tier int

const (
	// TierWeb is the web/presentation tier.
	TierWeb Tier = iota
	// TierApp is the application (EJB) tier.
	TierApp
	// TierDB is the database tier.
	TierDB
	numTiers
)

// Tiers lists the service tiers front to back.
func Tiers() []Tier { return []Tier{TierWeb, TierApp, TierDB} }

// String returns the tier's short name, which is also the leading segment
// of every metric the tier emits.
func (t Tier) String() string {
	switch t {
	case TierWeb:
		return "web"
	case TierApp:
		return "app"
	case TierDB:
		return "db"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// RebootFix returns the tier-restart fix appropriate for t — the paper's
// "reboot at appropriate level" (Table 1, aging row).
func (t Tier) RebootFix() FixID {
	switch t {
	case TierWeb:
		return FixRebootWebTier
	case TierApp:
		return FixRebootAppTier
	case TierDB:
		return FixRebootDBTier
	default:
		return FixFullRestart
	}
}

// CandidateFixes reproduces Table 1: the candidate fixes, in preference
// order, for each failure kind. The first entry is the fix the paper lists
// first (and, in this reproduction, the one that actually clears the fault;
// later entries partially help or mask symptoms).
func CandidateFixes(k FaultKind) []FixID {
	switch k {
	case FaultDeadlock:
		return []FixID{FixMicrorebootEJB, FixKillHungQuery, FixRebootAppTier}
	case FaultException:
		return []FixID{FixMicrorebootEJB, FixRebootAppTier}
	case FaultAging:
		return []FixID{FixRebootWebTier, FixRebootAppTier, FixRebootDBTier, FixFullRestart}
	case FaultStaleStats:
		return []FixID{FixUpdateStats, FixRebuildIndex}
	case FaultBlockContention:
		return []FixID{FixRepartitionTable}
	case FaultBufferContention:
		return []FixID{FixRepartitionMemory}
	case FaultBottleneck:
		return []FixID{FixProvisionTier}
	case FaultCodeBug:
		return []FixID{FixRebootAppTier, FixFullRestart, FixNotifyAdmin}
	case FaultOperatorConfig:
		return []FixID{FixRestoreConfig, FixNotifyAdmin}
	case FaultHardware:
		return []FixID{FixFailoverNode, FixNotifyAdmin}
	case FaultNetwork:
		return []FixID{FixFailoverNode, FixNotifyAdmin}
	default:
		return nil
	}
}

// DefaultCause returns the Figure 1 cause category a fault kind is tagged
// with when the injector does not override it.
func DefaultCause(k FaultKind) Cause {
	switch k {
	case FaultOperatorConfig:
		return CauseOperator
	case FaultDeadlock, FaultException, FaultAging, FaultCodeBug, FaultStaleStats,
		FaultBlockContention, FaultBufferContention:
		return CauseSoftware
	case FaultHardware:
		return CauseHardware
	case FaultNetwork:
		return CauseNetwork
	case FaultBottleneck:
		return CauseUnknown
	default:
		return CauseUnknown
	}
}
