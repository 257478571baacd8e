// Package selfheal is a reproduction of "Toward Self-Healing Multitier
// Services" (Cook, Babu, Candea, Duan — ICDE 2007) grown toward fleet
// scale: an automated, learning-based healing stack for database-centric
// multitier services, together with the simulated RUBiS-style service,
// fault and fix catalogs, detection machinery and experiment harnesses the
// paper's evaluation needs.
//
// The facade is built from three primitives:
//
// A System is one simulated service with a Figure 3 healing loop attached,
// configured with functional options and driven under a context:
//
//	sys, err := selfheal.New(ctx,
//		selfheal.WithSeed(42),
//		selfheal.WithApproach(selfheal.ApproachHybrid))
//	ep := sys.HealEpisode(ctx, selfheal.NewStaleStats("items", 8))
//	fmt.Println(ep.Recovered, ep.TTR())
//
// The healing loop narrates itself as an event stream (FaultInjected,
// Detected, AttemptApplied, Escalated, Recovered) through any EventSink
// attached with WithEventSink — cmd/selfheald is nothing but a consumer of
// that stream.
//
// A Fleet is N independent deterministic replicas healing concurrent fault
// campaigns through a batched work-stealing scheduler, optionally learning
// into one shared knowledge base (§5.1's portable synopsis, WithSynopsis +
// NewSharedSynopsis): reads ride lock-free copy-on-write snapshots, writes
// batch at episode granularity (WithLearnBatch). New techniques plug into
// everything above through RegisterApproach, without editing this package.
// A fleet over a shared knowledge base becomes one node of a federated
// knowledge plane with Fleet.ServeOps and a NodeSpec: its ops endpoints,
// its peers, and the guards in front of them.
//
// The system being healed is itself pluggable: a Target (internal/targets)
// is any managed system that can advance a tick under workload, expose
// metric samples and a call matrix, accept fault injection and apply
// recovery actions, carrying its own fault/fix catalog (TargetSpec). Two
// targets ship — the default "auction" simulator and a "replicated"
// three-tier topology with failover routing — selected per System and
// mixed across a Fleet with WithTargets; new target kinds plug in
// through RegisterTarget exactly as approaches do through
// RegisterApproach. See ADDING_TARGETS.md.
//
// Everything underneath lives in internal/ packages: the managed-system
// targets with their fixes (internal/targets, over the analytical
// simulator of internal/service), Table 1's faults (internal/faults), SLO
// and χ² detection (internal/detect), the learned synopses
// (internal/synopsis), the diagnosis-based approaches (internal/diagnose),
// and the FixSym healing loop with its hybrid extension (internal/core).
package selfheal

import (
	"context"
	"fmt"
	"io"
	"strings"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/scenario"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
)

// Re-exported core types: the facade's vocabulary.
type (
	// Action is a fix plus its target (e.g. microreboot-ejb on ItemBean).
	Action = core.Action
	// Approach is a fix-identification technique (§4.3 of the paper).
	Approach = core.Approach
	// Episode is the outcome of healing one failure.
	Episode = core.Episode
	// Fault is one injectable failure: the target-agnostic descriptor
	// (kind, cause, strike target, ground-truth fix). Each target's fault
	// constructors and generators produce faults only that target can
	// inject.
	Fault = core.Fault
	// Target is one managed system under healing; see WithTargets and
	// RegisterTarget.
	Target = targets.Target
	// TargetSpec is a target kind's static catalog: its fault kinds,
	// candidate-fix map, tiers, default SLO and workload mixes.
	TargetSpec = targets.Spec
	// TargetConfig parameterizes one target instance (seed, workload mix).
	TargetConfig = targets.Config
	// FaultGen draws random faults scoped to one target's catalog.
	FaultGen = targets.FaultGen
	// Harness couples a target with monitoring and healing.
	Harness = core.Harness
	// FailureContext is what approaches observe about a detected failure.
	FailureContext = core.FailureContext
	// Evidence is the optional evidence an approach declares it reads
	// from a FailureContext, through an Evidence() Evidence method.
	Evidence = core.Evidence
	// Synopsis is a learned symptom→fix model (§5.2).
	Synopsis = synopsis.Synopsis
	// Point is one synopsis training observation: a symptom vector, the
	// action attempted against it, and whether the action worked.
	Point = synopsis.Point
	// Suggestion is a recommended action with a confidence in [0,1].
	Suggestion = synopsis.Suggestion
	// ActionFilter is the typed exclusion set Suggest consults (nil
	// excludes nothing); build one with ExcludeActions.
	ActionFilter = synopsis.ActionFilter
	// SharedSynopsis is a snapshot-published synopsis many replicas learn
	// into: reads are lock-free, writes batch behind one mutex.
	SharedSynopsis = synopsis.Shared
	// Compaction is the bounded-memory mode of a shared knowledge base:
	// exact-duplicate collapse, near-duplicate merge, and capped arrival
	// log with oldest-first, failures-first eviction. Turn it on with
	// SharedSynopsis.EnableCompaction.
	Compaction = synopsis.Compaction
	// FixID identifies one of Table 1's candidate fixes.
	FixID = catalog.FixID
	// FaultKind identifies one of Table 1's failure types.
	FaultKind = catalog.FaultKind
	// Tier identifies a service tier.
	Tier = catalog.Tier
)

// Fault constructors for the default auction target, re-exported from the
// fault catalog.
var (
	NewDeadlock         = faults.NewDeadlock
	NewException        = faults.NewException
	NewAging            = faults.NewAging
	NewStaleStats       = faults.NewStaleStats
	NewBlockContention  = faults.NewBlockContention
	NewBufferContention = faults.NewBufferContention
	NewBottleneck       = faults.NewBottleneck
	NewCodeBug          = faults.NewCodeBug
	NewHardware         = faults.NewHardware
	NewNetwork          = faults.NewNetwork
)

// ExcludeActions builds a set-backed ActionFilter excluding exactly the
// given actions (nil — exclude nothing — for an empty list).
var ExcludeActions = synopsis.ExcludeActions

// Fault constructors for the replicated-topology target: replica-partial
// failures whose fixes are rebalance/failover operations.
var (
	NewReplicaDown     = targets.NewReplicaDown
	NewPrimaryDegraded = targets.NewPrimaryDegraded
	NewRoutingSkew     = targets.NewRoutingSkew
	NewReplicaLeak     = targets.NewReplicaLeak
	NewBadDeploy       = targets.NewBadDeploy
	NewSearchSurge     = targets.NewSearchSurge
)

// Tier constants.
const (
	TierWeb = catalog.TierWeb
	TierApp = catalog.TierApp
	TierDB  = catalog.TierDB
)

// The optional evidence an approach may declare. A replica's harness
// gathers only what its approach declares; an approach declaring nothing
// gets History as the detection window and no paths or call anomalies.
const (
	EvidenceHistory = core.EvidenceHistory
	EvidencePaths   = core.EvidencePaths
	EvidenceCalls   = core.EvidenceCalls
)

// config is the resolved option set shared by New and NewFleet.
type config struct {
	seed            int64
	approachKind    ApproachKind
	approach        Approach
	syn             Synopsis
	targetKinds     []TargetKind
	targetInstance  Target
	mix             string
	adminDelayTicks int
	sink            EventSink
	workers         int
	learnBatch      int
	scenario        *Scenario
}

// applyScenarioDefaults lets a pinned scenario select the target kind
// when no WithTargets was given.
func (c *config) applyScenarioDefaults() {
	if c.scenario != nil && c.scenario.Target != "" && len(c.targetKinds) == 0 {
		c.targetKinds = []TargetKind{TargetKind(c.scenario.Target)}
	}
}

func defaultConfig() config {
	return config{seed: 42, approachKind: ApproachHybrid}
}

// targetKindFor returns the target kind replica i runs: WithTargets
// round-robins a heterogeneous fleet, and the default is the auction
// simulator.
func (c *config) targetKindFor(i int) TargetKind {
	if len(c.targetKinds) == 0 {
		return TargetAuction
	}
	return c.targetKinds[i%len(c.targetKinds)]
}

// distinctKinds returns the configured target kinds, deduplicated in
// order.
func (c *config) distinctKinds() []TargetKind {
	if len(c.targetKinds) == 0 {
		return []TargetKind{TargetAuction}
	}
	seen := make(map[TargetKind]bool, len(c.targetKinds))
	var out []TargetKind
	for _, k := range c.targetKinds {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// checkMix verifies that at least one configured target kind understands
// cfg.mix. Mix names are target-scoped, so a heterogeneous fleet is only
// an error when *no* kind speaks the name; kinds that don't speak it run
// their default (see mixFor).
func (c *config) checkMix() error {
	if c.mix == "" {
		return nil
	}
	var details []string
	for _, k := range c.distinctKinds() {
		spec, ok := TargetSpecFor(k)
		if !ok {
			// Unknown kind: let target construction report it.
			return nil
		}
		if spec.ValidMix(c.mix) {
			return nil
		}
		details = append(details, fmt.Sprintf("%s: %s", k, strings.Join(spec.Mixes, "/")))
	}
	return fmt.Errorf("selfheal: no configured target understands workload mix %q (%s)",
		c.mix, strings.Join(details, "; "))
}

// mixFor resolves the workload mix replica kind actually runs: cfg.mix
// when the kind's spec understands it, the kind's own default otherwise —
// so a heterogeneous fleet applies a mix to the kinds that define it
// without rejecting the rest.
func (c *config) mixFor(kind TargetKind) string {
	if c.mix == "" {
		return ""
	}
	if spec, ok := TargetSpecFor(kind); ok && !spec.ValidMix(c.mix) {
		return ""
	}
	return c.mix
}

// Option configures a System or a Fleet.
type Option func(*config) error

// WithSeed makes the whole run deterministic (default 42 when the option
// is absent). A Fleet derives each replica's seed from this base; replica
// 0 uses it unchanged.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithApproach picks the healing technique by registered kind (default
// ApproachHybrid). A Fleet constructs a fresh instance per replica.
func WithApproach(kind ApproachKind) Option {
	return func(c *config) error {
		if kind == "" {
			kind = ApproachHybrid
		}
		c.approachKind = kind
		return nil
	}
}

// WithApproachInstance heals with an already-constructed approach — e.g. a
// FixSym rebuilt from a persisted knowledge base. Single System only: a
// Fleet rejects it, because one mutable instance must not be shared across
// replicas (use WithSynopsis for that).
func WithApproachInstance(a Approach) Option {
	return func(c *config) error {
		if a == nil {
			return fmt.Errorf("selfheal: WithApproachInstance(nil)")
		}
		c.approach = a
		return nil
	}
}

// WithSynopsis heals with a FixSym approach over the given synopsis. Pass
// a NewSharedSynopsis-wrapped synopsis to a Fleet and every replica learns
// into the same knowledge base; a Fleet of more than one replica rejects
// an unwrapped synopsis, which its concurrent episodes would race on.
func WithSynopsis(s Synopsis) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("selfheal: WithSynopsis(nil)")
		}
		c.syn = s
		return nil
	}
}

// WithTargets picks the managed systems being healed by registered
// target kind (default TargetAuction, the RUBiS-style simulator); each
// kind's spec supplies its fault catalog, candidate fixes, workload
// mixes and default SLO. A single System runs kinds[0]; fleet replica i
// runs kinds[i mod len(kinds)]. With a shared knowledge base a
// heterogeneous fleet pools experience across kinds — symptom dimensions
// with shared metric names align, target-specific dimensions only
// discriminate within their own kind.
func WithTargets(kinds ...TargetKind) Option {
	return func(c *config) error {
		if len(kinds) == 0 {
			return fmt.Errorf("selfheal: WithTargets needs at least one kind")
		}
		c.targetKinds = append([]TargetKind(nil), kinds...)
		return nil
	}
}

// WithTargetInstance heals an already-constructed target — e.g. a
// supervisor built with NewProcessTarget around a custom command and
// probe cadence. Single System only: a Fleet rejects it, because one
// mutable target must not be shared across replicas (register a kind
// with RegisterTarget for that). Workload-mix options do not apply to
// an instance, which was configured at construction.
func WithTargetInstance(t Target) Option {
	return func(c *config) error {
		if t == nil {
			return fmt.Errorf("selfheal: WithTargetInstance(nil)")
		}
		c.targetInstance = t
		c.targetKinds = []TargetKind{TargetKind(t.Spec().Name)}
		return nil
	}
}

// WithWorkloadMix selects a workload mix by name from the target's spec
// (e.g. "bidding" and "browsing" on the auction target, "balanced" and
// "readheavy" on the replicated one). An empty name keeps the target's
// default. Mix names are target-scoped: in a heterogeneous fleet the mix
// applies to the kinds whose spec defines it and the remaining kinds run
// their defaults; construction fails only when no configured kind
// understands the name.
func WithWorkloadMix(name string) Option {
	return func(c *config) error { c.mix = name; return nil }
}

// WithAdminDelayTicks overrides the human response time after NotifyAdmin
// (default 600 simulated seconds).
func WithAdminDelayTicks(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("selfheal: admin delay %d < 1", n)
		}
		c.adminDelayTicks = n
		return nil
	}
}

// WithEventSink attaches an episode event stream consumer. A sink given to
// a Fleet receives events from all replicas concurrently and must be safe
// for concurrent use; each event carries its replica id.
func WithEventSink(s EventSink) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("selfheal: WithEventSink(nil)")
		}
		c.sink = s
		return nil
	}
}

// WithLearnBatch batches learn events at episode granularity: each
// healer buffers its attempts' outcomes and delivers them to the approach
// every n episodes in one batch (n=1: once per episode) instead of one
// synopsis update per attempt. On a shared fleet knowledge base that means
// one writer-lock acquisition, one model refit and one snapshot republish
// per flush — the write path that keeps Suggest/RankK readers lock-free.
// Zero (the default) keeps the paper's immediate per-attempt learning.
// Identical between a System and a fleet of one, so batched fleets remain
// reproducible by sequential replay.
func WithLearnBatch(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("selfheal: learn batch %d < 0", n)
		}
		c.learnBatch = n
		return nil
	}
}

// WithWorkers bounds a Fleet's concurrently-healing replicas (default: all
// replicas at once). A single System ignores it.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("selfheal: workers %d < 1", n)
		}
		c.workers = n
		return nil
	}
}

// NewSharedSynopsis wraps base as a fleet-wide knowledge base: Suggest and
// RankK read an immutable copy-on-write snapshot through an atomic pointer
// (no lock), while writers — ideally episode batches via WithLearnBatch —
// serialize behind a mutex and republish the snapshot once per write. The
// snapshots are clones, so base must implement Clone() Synopsis, as every
// built-in synopsis does; NewSharedSynopsis panics on one that does not.
func NewSharedSynopsis(base Synopsis) *SharedSynopsis { return synopsis.NewShared(base) }

// System is one managed-system target with a healing loop attached.
type System struct {
	*core.Harness
	// Healer drives the Figure 3 loop over the harness; exposed for
	// callers that tune or replace pieces of it (e.g. swapping Approach
	// after construction, as examples/knowledgebase does).
	Healer   *core.Healer
	approach Approach
	scenario *Scenario
}

// New builds and warms up a system. The context only gates construction;
// pass a context again to each HealEpisode call to bound or cancel
// healing.
func New(ctx context.Context, opts ...Option) (*System, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.applyScenarioDefaults()
	if err := cfg.checkMix(); err != nil {
		return nil, err
	}
	return newSystem(&cfg, cfg.targetKindFor(0), cfg.seed, cfg.sink)
}

// newSystem realizes one replica of cfg at the given target kind and
// seed. Fleet replicas share cfg but differ in kind, seed and sink.
func newSystem(cfg *config, kind TargetKind, seed int64, sink EventSink) (*System, error) {
	approach, err := resolveApproach(cfg)
	if err != nil {
		return nil, err
	}
	t := cfg.targetInstance
	if t == nil {
		t, err = NewTarget(kind, TargetConfig{Seed: seed, Mix: cfg.mixFor(kind)})
		if err != nil {
			return nil, err
		}
	}
	hcfg := core.DefaultHarnessConfig()
	hcfg.Seed = seed
	hcfg.SLO = t.Spec().SLO
	hlcfg := core.DefaultHealerConfig()
	// A Tuner target (typically wall-clock, alongside Clocked) overrides
	// the simulator-scale cadence defaults before the user's explicit
	// options do: at 50ms a tick, a 240-tick warmup or 600-tick admin
	// delay is minutes of wall time per episode.
	if tn, ok := t.(targets.Tuner); ok {
		tun := tn.HarnessTuning()
		if tun.WarmupTicks > 0 {
			hcfg.WarmupTicks = tun.WarmupTicks
		}
		if tun.WindowTicks > 0 {
			hcfg.WindowTicks = tun.WindowTicks
		}
		if tun.DetectK > 0 {
			hcfg.DetectK = tun.DetectK
		}
		if tun.HistoryTicks > 0 {
			hcfg.HistoryTicks = tun.HistoryTicks
		}
		if tun.CheckTicks > 0 {
			hlcfg.CheckTicks = tun.CheckTicks
		}
		if tun.AdminDelayTicks > 0 {
			hlcfg.AdminDelayTicks = tun.AdminDelayTicks
		}
		if tun.EpisodeBudget > 0 {
			hlcfg.EpisodeBudget = tun.EpisodeBudget
		}
	}
	h := core.NewTargetHarness(t, hcfg)
	if cfg.adminDelayTicks > 0 {
		hlcfg.AdminDelayTicks = cfg.adminDelayTicks
	}
	hlcfg.LearnBatch = cfg.learnBatch
	hl := core.NewHealer(h, approach, hlcfg)
	hl.AdminOracle = t.CorrectFix
	hl.Sink = sink
	if cfg.scenario != nil {
		// Validate the pinned scenario against this concrete target now —
		// catalog coverage, capabilities, component names — instead of at
		// the first RunScenario.
		if _, err := scenario.NewRunner(cfg.scenario, hl); err != nil {
			return nil, err
		}
	}
	return &System{Harness: h, Healer: hl, approach: approach, scenario: cfg.scenario}, nil
}

// resolveApproach builds the healing approach cfg asks for: an explicit
// instance wins, then a FixSym over a provided synopsis, then a fresh
// instance of the registered kind.
func resolveApproach(cfg *config) (Approach, error) {
	switch {
	case cfg.approach != nil:
		return cfg.approach, nil
	case cfg.syn != nil:
		return core.NewFixSym(cfg.syn), nil
	default:
		return NewApproach(cfg.approachKind)
	}
}

// MustNew is New panicking on configuration errors, for examples and
// tests.
func MustNew(ctx context.Context, opts ...Option) *System {
	s, err := New(ctx, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Approach returns the system's healing approach.
func (s *System) Approach() Approach { return s.approach }

// Target returns the managed system under healing.
func (s *System) Target() Target { return s.Harness.Target }

// TargetSpec returns the catalog of the system's target kind.
func (s *System) TargetSpec() TargetSpec { return s.Harness.Target.Spec() }

// NewFaults returns a deterministic random fault generator scoped to the
// system's target catalog; unknown kinds return an error listing the
// valid ones.
func (s *System) NewFaults(seed int64, kinds ...FaultKind) (FaultGen, error) {
	return s.Harness.Target.NewFaults(seed, kinds...)
}

// HealEpisode injects the fault and drives the Figure 3 loop until the
// service recovers (or escalation completes). Cancelling the context stops
// the episode where it stands and returns what was observed. A fault
// built for a different target kind (e.g. NewReplicaDown against the
// default auction target) is refused: the returned Episode has Err set
// and nothing was injected.
func (s *System) HealEpisode(ctx context.Context, f Fault) Episode {
	return s.Healer.RunEpisode(ctx, f)
}

// FlushLearned delivers any learn events still buffered by WithLearnBatch
// to the approach. Call it when a batched run ends mid-batch; a fleet
// campaign does this per replica automatically.
func (s *System) FlushLearned() { s.Healer.FlushLearned() }

// Close releases whatever the system's target holds outside the process:
// the supervisor target stops and reaps its child and removes its temp
// state. Targets that hold nothing (the pure simulators) make Close a
// no-op. Close does not flush batched learning; call FlushLearned first
// when that matters.
func (s *System) Close() error {
	if c, ok := s.Harness.Target.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// CandidateFixes re-exports the Table 1 fault→fix map of the default
// auction target. Target-scoped maps live on each TargetSpec.
func CandidateFixes(k FaultKind) []FixID { return catalog.CandidateFixes(k) }

// ParseFaultKind resolves a canonical fault-kind name (the String form,
// e.g. "hardware-degradation") to its FaultKind, with an error listing
// the valid names on a miss — the string form cmd tools and scenario
// files speak.
var ParseFaultKind = catalog.ParseFaultKind

// Knowledge-base construction and portability.

// BootstrapPlan is the §4.2 active-stimulation schedule used to pre-train
// an approach during preproduction.
type BootstrapPlan = core.BootstrapPlan

// Bootstrap functions, plus the synopsis constructors for callers that
// assemble FixSym approaches by hand.
var (
	// Bootstrap runs a preproduction fault-injection campaign and feeds
	// ground-truth-labeled outcomes to the approach.
	Bootstrap = core.Bootstrap
	// DefaultBootstrapPlan exercises every learning kind twice.
	DefaultBootstrapPlan = core.DefaultBootstrapPlan
	// NewFixSym builds a FixSym approach over any synopsis.
	NewFixSym = core.NewFixSym
	// Synopsis constructors.
	NewNNSynopsis         = synopsis.NewNearestNeighbor
	NewKMeansSynopsis     = synopsis.NewKMeans
	NewAdaBoostSynopsis   = synopsis.NewAdaBoost
	NewNaiveBayesSynopsis = synopsis.NewNaiveBayes
)

// Portable knowledge-base snapshots (format v2). See KNOWLEDGE_BASES.md.
type (
	// KBSnapshot is a decoded knowledge-base file: a synopsis's training
	// history plus the symptom-space name table and target catalogs that
	// make it portable across processes.
	KBSnapshot = synopsis.Snapshot
	// KBTargetCatalog records one target kind's fault kinds and
	// candidate fixes inside a snapshot.
	KBTargetCatalog = synopsis.TargetCatalog
)

// DecodeKnowledgeBase parses a knowledge-base snapshot without replaying
// it into a synopsis — the raw material for inspection, merging and
// conversion (cmd/kbtool is a thin wrapper over it).
func DecodeKnowledgeBase(r io.Reader) (*KBSnapshot, error) { return synopsis.Decode(r) }

// MergeKnowledgeBases folds N snapshots into one: symptom schemas are
// unioned by metric name, points are remapped into the union space and
// deduplicated, and target catalogs are unioned. See synopsis.Merge for
// the full rules; the operation is associative.
func MergeKnowledgeBases(snaps ...*KBSnapshot) (*KBSnapshot, error) { return synopsis.Merge(snaps...) }

// SaveKnowledgeBase serializes a synopsis's training history as a
// format-v2 snapshot carrying this process's symptom-space name table
// and the fix catalogs of every registered target kind — the §5.1
// knowledge base "a practitioner can use", portable to processes that
// register their target kinds in any order. The synopsis must be able to
// export its history (every built-in learner and SharedSynopsis over one
// can); otherwise an error is returned, wrapping synopsis.ErrNotExportable
// when the history exists but cannot be surrendered.
func SaveKnowledgeBase(w io.Writer, s Synopsis) error {
	snap, err := synopsis.Capture(s, synopsis.SaveOptions{Targets: TargetCatalogs()})
	if err != nil {
		return err
	}
	return snap.Encode(w)
}

// LoadKnowledgeBase replays a saved knowledge base into any synopsis,
// remapping format-v2 point vectors into this process's symptom space by
// metric name — build the Systems or Fleet first so the process's own
// targets have registered their schemas, then load. Version-1 files carry
// no name table and replay positionally: they rank fixes correctly only in
// a process that registered its target kinds in the same order as the
// writer.
func LoadKnowledgeBase(r io.Reader, into Synopsis) error {
	snap, err := synopsis.Decode(r)
	if err != nil {
		return err
	}
	return snap.Replay(into, nil)
}

// TargetCatalogs returns the fix catalogs of every registered target
// kind in snapshot form — what SaveKnowledgeBase records so a knowledge
// base names the vocabulary its experience covers.
func TargetCatalogs() map[string]KBTargetCatalog {
	out := make(map[string]KBTargetCatalog)
	for _, kind := range TargetKinds() {
		spec, ok := TargetSpecFor(kind)
		if !ok {
			continue
		}
		cat := KBTargetCatalog{
			Description:    spec.Description,
			CandidateFixes: make(map[string][]string, len(spec.CandidateFixes)),
		}
		for _, k := range spec.FaultKinds {
			cat.FaultKinds = append(cat.FaultKinds, k.String())
			for _, f := range spec.CandidateFixes[k] {
				cat.CandidateFixes[k.String()] = append(cat.CandidateFixes[k.String()], f.String())
			}
		}
		out[spec.Name] = cat
	}
	return out
}

// TargetMetricNames returns a registered target kind's metric-schema
// names in the target's own schema order — the names its harness
// registers into the process symptom space at warmup. kbtool convert
// uses them to reconstruct the symptom space a v1 writer had, given the
// order in which that writer registered its target kinds.
func TargetMetricNames(kind TargetKind) ([]string, error) {
	t, err := NewTarget(kind, TargetConfig{Seed: 1})
	if err != nil {
		return nil, err
	}
	var names []string
	for _, src := range t.Sources() {
		names = append(names, src.MetricNames()...)
	}
	return names, nil
}
