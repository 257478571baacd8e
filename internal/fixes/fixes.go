// Package fixes implements the candidate fixes of the paper's Table 1 and
// the Actuator that applies them to the simulated service. Each fix knows
// its disruption profile: how long it takes before the service can be
// re-checked (the check-fix delay of Figure 3 line 13 — "care should be
// taken to let the service recover fully", §4.1).
package fixes

import (
	"fmt"

	"selfheal/internal/catalog"
	"selfheal/internal/service"
)

// profile describes one fix's operational characteristics.
type profile struct {
	id catalog.FixID
	// settleTicks is how long after application the service needs before a
	// meaningful success check (includes any downtime the fix causes).
	settleTicks int64
	// needsTarget reports whether the fix requires a component/table/tier
	// argument.
	needsTarget bool
}

// profiles enumerates every fix the actuator can apply.
var profiles = map[catalog.FixID]profile{
	catalog.FixMicrorebootEJB:    {catalog.FixMicrorebootEJB, 4, true},
	catalog.FixKillHungQuery:     {catalog.FixKillHungQuery, 3, false},
	catalog.FixRebootWebTier:     {catalog.FixRebootWebTier, 26, false},
	catalog.FixRebootAppTier:     {catalog.FixRebootAppTier, 36, false},
	catalog.FixRebootDBTier:      {catalog.FixRebootDBTier, 66, false},
	catalog.FixUpdateStats:       {catalog.FixUpdateStats, 6, true},
	catalog.FixRepartitionTable:  {catalog.FixRepartitionTable, 12, true},
	catalog.FixRepartitionMemory: {catalog.FixRepartitionMemory, 4, false},
	catalog.FixProvisionTier:     {catalog.FixProvisionTier, 16, true},
	catalog.FixRebuildIndex:      {catalog.FixRebuildIndex, 22, true},
	catalog.FixRestoreConfig:     {catalog.FixRestoreConfig, 12, false},
	catalog.FixFailoverNode:      {catalog.FixFailoverNode, 10, true},
	catalog.FixFullRestart:       {catalog.FixFullRestart, 126, false},
	catalog.FixNotifyAdmin:       {catalog.FixNotifyAdmin, 0, false},
}

// Application records one applied fix.
type Application struct {
	Fix         catalog.FixID
	Target      string
	AppliedAt   int64
	SettleTicks int64
}

// Actuator applies fixes to a service.
type Actuator struct {
	svc *service.Service
}

// NewActuator builds an actuator for svc.
func NewActuator(svc *service.Service) *Actuator {
	return &Actuator{svc: svc}
}

// Apply performs the fix against the service and returns its application
// record. Unknown fixes and missing targets are reported as errors; the
// healing loop treats those as failed attempts.
func (a *Actuator) Apply(id catalog.FixID, target string) (Application, error) {
	p, ok := profiles[id]
	if !ok {
		return Application{}, fmt.Errorf("fixes: unknown fix %v", id)
	}
	if p.needsTarget && target == "" {
		return Application{}, fmt.Errorf("fixes: %v needs a target", id)
	}
	if !ValidTarget(id, target) {
		// Learned or diagnosed recommendations can carry targets of the
		// wrong kind (a table name for a component fix); that is a failed
		// attempt, not a crash.
		return Application{}, fmt.Errorf("fixes: %v cannot target %q", id, target)
	}
	svc := a.svc
	switch id {
	case catalog.FixMicrorebootEJB:
		svc.MicrorebootEJB(target)
	case catalog.FixKillHungQuery:
		svc.KillHungQuery()
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
		svc.ProvisionTier(tierByName(target))
	case catalog.FixRebuildIndex:
		svc.RebuildIndex(target)
	case catalog.FixRestoreConfig:
		svc.RestoreConfig()
	case catalog.FixFailoverNode:
		svc.FailoverNode(tierByName(target))
	case catalog.FixFullRestart:
		svc.FullRestart()
	case catalog.FixNotifyAdmin:
		// No service effect; the healing loop models the human response.
	default:
		return Application{}, fmt.Errorf("fixes: unhandled fix %v", id)
	}
	return Application{Fix: id, Target: target, AppliedAt: svc.Now(), SettleTicks: p.settleTicks}, nil
}

// tierByName maps a tier name (or any unknown string) to a tier, defaulting
// to the app tier so a mis-targeted fix still does something plausible
// rather than crashing the healing loop.
func tierByName(name string) catalog.Tier {
	switch name {
	case catalog.TierWeb.String():
		return catalog.TierWeb
	case catalog.TierDB.String():
		return catalog.TierDB
	default:
		return catalog.TierApp
	}
}

// ValidTarget reports whether target is a sensible argument for the fix,
// used by approaches to sanitize learned or diagnosed recommendations.
func ValidTarget(id catalog.FixID, target string) bool {
	p, ok := profiles[id]
	if !ok {
		return false
	}
	if !p.needsTarget {
		return true
	}
	switch id {
	case catalog.FixMicrorebootEJB:
		return contains(service.EJBNames(), target)
	case catalog.FixUpdateStats, catalog.FixRepartitionTable, catalog.FixRebuildIndex:
		return contains(service.TableNames(), target)
	case catalog.FixProvisionTier, catalog.FixFailoverNode:
		return target == "web" || target == "app" || target == "db"
	default:
		return target != ""
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
