package selfheal

import (
	"fmt"
	"sync"

	"selfheal/internal/core"
	"selfheal/internal/diagnose"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
	"selfheal/internal/targets/process"
)

// ApproachKind names a fix-identification technique a System heals with.
type ApproachKind string

// The built-in approaches (§3–§4.3 of the paper).
const (
	// ApproachManual is the static rule-based baseline of §3.
	ApproachManual ApproachKind = "manual"
	// ApproachAnomaly is diagnosis via anomaly detection (§4.3.1).
	ApproachAnomaly ApproachKind = "anomaly"
	// ApproachCorrelation is diagnosis via correlation analysis (§4.3.2).
	ApproachCorrelation ApproachKind = "correlation"
	// ApproachBottleneck is diagnosis via bottleneck analysis (§4.3.3).
	ApproachBottleneck ApproachKind = "bottleneck"
	// ApproachFixSymNN is FixSym over a nearest-neighbor synopsis (§4.3.4).
	ApproachFixSymNN ApproachKind = "fixsym-nn"
	// ApproachFixSymKMeans is FixSym over per-fix k-means clustering.
	ApproachFixSymKMeans ApproachKind = "fixsym-kmeans"
	// ApproachFixSymAdaBoost is FixSym over a 60-learner AdaBoost ensemble.
	ApproachFixSymAdaBoost ApproachKind = "fixsym-adaboost"
	// ApproachFixSymBayes is FixSym over Gaussian naive Bayes (confidence
	// estimates, §5.2).
	ApproachFixSymBayes ApproachKind = "fixsym-bayes"
	// ApproachPathAnalysis is path-based failure management (refs [5],[8]).
	ApproachPathAnalysis ApproachKind = "path-analysis"
	// ApproachHybrid combines FixSym with the diagnosis approaches (§5.1).
	ApproachHybrid ApproachKind = "hybrid"
)

// ApproachFactory constructs a fresh, unshared approach instance. A Fleet
// calls the factory once per replica, so factories must not capture
// mutable state.
type ApproachFactory func() (Approach, error)

var approachRegistry = struct {
	sync.RWMutex
	factories map[ApproachKind]ApproachFactory
	order     []ApproachKind
}{factories: make(map[ApproachKind]ApproachFactory)}

// RegisterApproach installs a new fix-identification technique under kind,
// making it available to New, NewFleet and every cmd/ tool without editing
// the facade. Registering an empty kind, a nil factory, or a kind that is
// already taken returns an error.
func RegisterApproach(kind ApproachKind, factory ApproachFactory) error {
	if kind == "" {
		return fmt.Errorf("selfheal: cannot register an empty approach kind")
	}
	if factory == nil {
		return fmt.Errorf("selfheal: approach %q registered with a nil factory", kind)
	}
	approachRegistry.Lock()
	defer approachRegistry.Unlock()
	if _, dup := approachRegistry.factories[kind]; dup {
		return fmt.Errorf("selfheal: approach %q already registered", kind)
	}
	approachRegistry.factories[kind] = factory
	approachRegistry.order = append(approachRegistry.order, kind)
	return nil
}

// MustRegisterApproach is RegisterApproach panicking on error, for
// package-init registration of extensions.
func MustRegisterApproach(kind ApproachKind, factory ApproachFactory) {
	if err := RegisterApproach(kind, factory); err != nil {
		panic(err)
	}
}

// NewApproach constructs a fresh approach of the given registered kind.
func NewApproach(kind ApproachKind) (Approach, error) {
	approachRegistry.RLock()
	factory, ok := approachRegistry.factories[kind]
	approachRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("selfheal: unknown approach %q (registered: %v)", kind, ApproachKinds())
	}
	return factory()
}

// ApproachKinds lists every registered approach in registration order (the
// built-ins first, in the paper's order).
func ApproachKinds() []ApproachKind {
	approachRegistry.RLock()
	defer approachRegistry.RUnlock()
	return append([]ApproachKind(nil), approachRegistry.order...)
}

// TargetKind names a managed-system kind a System or Fleet heals.
type TargetKind string

// The built-in targets.
const (
	// TargetAuction is the default RUBiS-style three-tier simulator (the
	// paper's Example 1).
	TargetAuction TargetKind = targets.AuctionName
	// TargetReplicated is the replicated topology: 1 web LB + 2 app
	// replicas + primary/standby DB with failover routing.
	TargetReplicated TargetKind = targets.ReplicatedName
)

// TargetFactory constructs a fresh, unshared target instance at the
// given configuration. A Fleet calls the factory once per replica, so
// factories must not capture mutable state.
type TargetFactory func(cfg TargetConfig) (Target, error)

var targetRegistry = struct {
	sync.RWMutex
	specs     map[TargetKind]TargetSpec
	factories map[TargetKind]TargetFactory
	order     []TargetKind
}{specs: make(map[TargetKind]TargetSpec), factories: make(map[TargetKind]TargetFactory)}

// RegisterTarget installs a new managed-system kind under spec.Name,
// making it available to New, NewFleet, WithTargets and every
// cmd/ tool without editing the facade — the mirror of RegisterApproach
// for the system being healed. Registering an empty name, a nil factory,
// an empty fault catalog, or a name that is already taken returns an
// error.
func RegisterTarget(spec TargetSpec, factory TargetFactory) error {
	kind := TargetKind(spec.Name)
	if kind == "" {
		return fmt.Errorf("selfheal: cannot register a target with an empty name")
	}
	if factory == nil {
		return fmt.Errorf("selfheal: target %q registered with a nil factory", kind)
	}
	if len(spec.FaultKinds) == 0 {
		return fmt.Errorf("selfheal: target %q registered with an empty fault catalog", kind)
	}
	targetRegistry.Lock()
	defer targetRegistry.Unlock()
	if _, dup := targetRegistry.factories[kind]; dup {
		return fmt.Errorf("selfheal: target %q already registered", kind)
	}
	targetRegistry.specs[kind] = spec
	targetRegistry.factories[kind] = factory
	targetRegistry.order = append(targetRegistry.order, kind)
	return nil
}

// MustRegisterTarget is RegisterTarget panicking on error, for
// package-init registration of extensions.
func MustRegisterTarget(spec TargetSpec, factory TargetFactory) {
	if err := RegisterTarget(spec, factory); err != nil {
		panic(err)
	}
}

// NewTarget constructs a fresh target of the given registered kind.
func NewTarget(kind TargetKind, cfg TargetConfig) (Target, error) {
	targetRegistry.RLock()
	factory, ok := targetRegistry.factories[kind]
	targetRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("selfheal: unknown target %q (registered: %v)", kind, TargetKinds())
	}
	return factory(cfg)
}

// TargetSpecFor returns the registered spec of a target kind.
func TargetSpecFor(kind TargetKind) (TargetSpec, bool) {
	targetRegistry.RLock()
	defer targetRegistry.RUnlock()
	spec, ok := targetRegistry.specs[kind]
	return spec, ok
}

// TargetKinds lists every registered target in registration order (the
// built-ins first).
func TargetKinds() []TargetKind {
	targetRegistry.RLock()
	defer targetRegistry.RUnlock()
	return append([]TargetKind(nil), targetRegistry.order...)
}

func init() {
	MustRegisterTarget(targets.AuctionSpec(), func(cfg TargetConfig) (Target, error) {
		return targets.NewAuction(cfg)
	})
	MustRegisterTarget(targets.ReplicatedSpec(), func(cfg TargetConfig) (Target, error) {
		return targets.NewReplicated(cfg)
	})
	MustRegisterTarget(process.Spec(), func(cfg TargetConfig) (Target, error) {
		// The supervised command comes from the environment (see
		// ProcessCommandEnv); everything else takes the target's defaults.
		argv, err := processCommand()
		if err != nil {
			return nil, err
		}
		return process.New(process.Config{Command: argv, Seed: cfg.Seed})
	})
}

func init() {
	builtins := []struct {
		kind    ApproachKind
		factory ApproachFactory
	}{
		{ApproachManual, func() (Approach, error) { return diagnose.NewManualRules(), nil }},
		{ApproachAnomaly, func() (Approach, error) { return diagnose.NewAnomaly(), nil }},
		{ApproachCorrelation, func() (Approach, error) { return diagnose.NewCorrelation(), nil }},
		{ApproachBottleneck, func() (Approach, error) { return diagnose.NewBottleneck(), nil }},
		{ApproachPathAnalysis, func() (Approach, error) { return diagnose.NewPathAnalysis(), nil }},
		{ApproachFixSymNN, func() (Approach, error) { return core.NewFixSym(synopsis.NewNearestNeighbor()), nil }},
		{ApproachFixSymKMeans, func() (Approach, error) { return core.NewFixSym(synopsis.NewKMeans()), nil }},
		{ApproachFixSymAdaBoost, func() (Approach, error) { return core.NewFixSym(synopsis.NewAdaBoost(60)), nil }},
		{ApproachFixSymBayes, func() (Approach, error) { return core.NewFixSym(synopsis.NewNaiveBayes()), nil }},
		{ApproachHybrid, func() (Approach, error) {
			return core.NewHybrid(
				core.NewFixSym(synopsis.NewNearestNeighbor()),
				diagnose.NewAnomaly(),
				diagnose.NewBottleneck(),
			), nil
		}},
	}
	for _, b := range builtins {
		MustRegisterApproach(b.kind, b.factory)
	}
}
