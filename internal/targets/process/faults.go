package process

import (
	"fmt"

	"selfheal/internal/catalog"
	"selfheal/internal/sim"
	"selfheal/internal/targets"
)

// fault is one injectable failure of a supervised process. Unlike the
// simulator targets' faults there is no severity model to carry: the
// injection mechanics are real signals and real file writes, so the
// fault record is just the catalog identity plus the strike target.
type fault struct {
	kind      catalog.FaultKind
	cause     catalog.Cause
	component string
	fix       catalog.FixID
}

func (f *fault) Kind() catalog.FaultKind { return f.kind }
func (f *fault) Cause() catalog.Cause    { return f.cause }
func (f *fault) Target() string          { return f.component }
func (f *fault) CorrectFix() (catalog.FixID, string) {
	return f.fix, f.component
}

// newFault builds the catalog entry for kind striking component.
//
//   - FaultHardware   → SIGKILL ("the node died"); ground truth is a
//     failover respawn of the process.
//   - FaultDeadlock   → SIGSTOP ("threads wedged"); ground truth is a
//     microreboot-style thaw (SIGCONT).
//   - FaultOperatorConfig → corrupting the config file on disk; ground
//     truth is restoring the known-good config.
func newFault(kind catalog.FaultKind, component string) (*fault, error) {
	f := &fault{kind: kind, component: component}
	switch kind {
	case catalog.FaultHardware:
		f.cause = catalog.CauseHardware
		f.fix = catalog.FixFailoverNode
	case catalog.FaultDeadlock:
		f.cause = catalog.CauseSoftware
		f.fix = catalog.FixMicrorebootEJB
	case catalog.FaultOperatorConfig:
		f.cause = catalog.CauseOperator
		f.fix = catalog.FixRestoreConfig
	default:
		return nil, fmt.Errorf("process: target %q has no fault kind %s", Name, kind)
	}
	return f, nil
}

// gen draws uniform faults over a validated kind subset.
type gen struct {
	rng       *sim.RNG
	kinds     []catalog.FaultKind
	component string
}

func (g *gen) Next() targets.Fault {
	f, err := newFault(g.kinds[g.rng.Intn(len(g.kinds))], g.component)
	if err != nil {
		// Kinds were validated at construction; reaching this is a bug.
		panic(err)
	}
	return f
}
