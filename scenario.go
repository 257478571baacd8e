package selfheal

import (
	"context"
	"fmt"
	"sync"

	"selfheal/internal/scenario"
	"selfheal/internal/targets"
)

// Adversarial scenarios (internal/scenario): scripted compositions of
// faults and workload the one-fault-per-episode campaigns never produce —
// correlated cascades, flapping and grey failures, traffic-trace
// playback. Build one with NewScenario, load one with LoadScenarioFile,
// or take one off the shelf with ScenarioByName; then run it with
// System.RunScenario or Fleet.RunScenario, or pin it at construction with
// WithScenario. See SCENARIOS.md for the DSL reference.
type (
	// Scenario is one scripted adversarial run: a fault timeline plus
	// workload directives over a bounded horizon.
	Scenario = scenario.Scenario
	// ScenarioBuilder assembles a Scenario fluently (NewScenario).
	ScenarioBuilder = scenario.Builder
	// ScenarioEvent is one scripted fault on a scenario's timeline.
	ScenarioEvent = scenario.Event
	// ScenarioFaultSpec declares a fault for the target's FaultMaker.
	ScenarioFaultSpec = scenario.FaultSpec
	// ScenarioTrigger schedules a scenario event (At/After/Every/While).
	ScenarioTrigger = scenario.Trigger
	// ScenarioFlap duty-cycles a scenario fault (inject/clear/repeat).
	ScenarioFlap = scenario.Flap
	// ScenarioWorkload scripts a scenario's workload plane.
	ScenarioWorkload = scenario.Workload
	// ScenarioStats is one scenario run's outcome: scripted-action
	// counts, healing outcomes, TTR percentiles, SLO damage.
	ScenarioStats = scenario.Stats
	// LoadSurge is one scheduled whole-mix load surge.
	LoadSurge = scenario.Surge
)

// Target capabilities the scenario engine drives. Every Target is a
// FaultMaker and a FaultClearer; WorkloadShaper and PartialInjector are
// optional, and NewRunner/RunScenario reject a scenario whose script
// needs one its target lacks. See ADDING_TARGETS.md.
type (
	// WorkloadShaper moves the offered load: scale, diurnal modulation,
	// drift, scheduled surges.
	WorkloadShaper = targets.WorkloadShaper
	// FaultMaker constructs catalog faults from declarative specs.
	FaultMaker = targets.FaultMaker
	// FaultClearer reverts an injected fault without applying a fix —
	// the quiet phase of a flapping fault, and the withdrawal of a fault
	// still live when its HealEpisode ends.
	FaultClearer = targets.FaultClearer
	// PartialInjector injects a severity-scaled fraction of a fault —
	// the grey-failure model.
	PartialInjector = targets.PartialInjector
)

// Scenario construction, codec and library, re-exported from
// internal/scenario.
var (
	// NewScenario starts a fluent scenario builder.
	NewScenario = scenario.New
	// ParseScenario reads and validates a scenario from JSON bytes.
	ParseScenario = scenario.ParseBytes
	// LoadScenarioFile reads and validates a scenario file.
	LoadScenarioFile = scenario.LoadFile
	// EncodeScenario writes a scenario as canonical indented JSON.
	EncodeScenario = scenario.Encode
	// ScenarioLibrary returns the shipped adversarial scenarios.
	ScenarioLibrary = scenario.Library
	// ScenarioNames lists the shipped scenario names.
	ScenarioNames = scenario.LibraryNames
	// ScenarioByName returns a shipped scenario by name.
	ScenarioByName = scenario.ByName
	// MergeScenarioStats folds several runs of the same scenario (e.g.
	// one per fleet replica) into aggregate stats.
	MergeScenarioStats = scenario.Merge
)

// WithScenario pins a scenario to the System or Fleet: the scenario is
// validated against the target at construction (catalog coverage,
// capabilities, component names), and RunScenario(ctx, nil) runs it.
// When no target kind is configured, the scenario's own target pin (if
// any) selects the kind.
func WithScenario(sc *Scenario) Option {
	return func(c *config) error {
		if sc == nil {
			return fmt.Errorf("selfheal: WithScenario(nil)")
		}
		if err := sc.Validate(); err != nil {
			return err
		}
		c.scenario = sc
		return nil
	}
}

// RunScenario drives sc through this system's healing loop and returns
// the run's stats: scripted actions fire on the campaign clock (cascades
// strike even mid-recovery), detected failures heal through the Figure 3
// loop, and the same seed and scenario reproduce the event stream and
// stats byte for byte. Pass nil to run the scenario pinned with
// WithScenario. The system should be fresh: scripted faults a scenario
// leaves active stay with the target.
func (s *System) RunScenario(ctx context.Context, sc *Scenario) (*ScenarioStats, error) {
	if sc == nil {
		sc = s.scenario
	}
	if sc == nil {
		return nil, fmt.Errorf("selfheal: no scenario: pass one to RunScenario or configure WithScenario")
	}
	r, err := scenario.NewRunner(sc, s.Healer)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// Scenario returns the scenario pinned with WithScenario, nil if none.
func (s *System) Scenario() *Scenario { return s.scenario }

// RunScenario drives sc on every replica concurrently (at most
// WithWorkers at a time) and merges the per-replica stats: counters sum,
// TTR percentiles are recomputed over the pooled samples. Pass nil to
// run the scenario pinned with WithScenario. Replicas whose target kind
// cannot run the scenario fail the whole call — scenario campaigns want
// a homogeneous fleet of the scenario's target kind.
func (fl *Fleet) RunScenario(ctx context.Context, sc *Scenario) (*ScenarioStats, error) {
	if sc == nil {
		sc = fl.cfg.scenario
	}
	if sc == nil {
		return nil, fmt.Errorf("selfheal: no scenario: pass one to RunScenario or configure WithScenario")
	}
	n := len(fl.replicas)
	runners := make([]*scenario.Runner, n)
	for i, sys := range fl.replicas {
		r, err := scenario.NewRunner(sc, sys.Healer)
		if err != nil {
			return nil, fmt.Errorf("selfheal: replica %d: %w", i, err)
		}
		runners[i] = r
	}
	workers := fl.cfg.workers
	if workers <= 0 || workers > n {
		workers = n
	}
	parts := make([]*ScenarioStats, n)
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range runners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			parts[i], errs[i] = runners[i].Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && err != ctx.Err() {
			return nil, fmt.Errorf("selfheal: replica %d: %w", i, err)
		}
	}
	return scenario.Merge(parts...), ctx.Err()
}
