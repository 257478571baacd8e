// Package targets defines the pluggable managed-system API: the Target
// interface the healing stack drives, and the per-target catalogs
// (TargetSpec) that scope fault kinds, candidate fixes, tiers and SLOs to
// one kind of system.
//
// The paper's healing loop (Figure 3) is defined over *any*
// database-centric multitier service; this package is the seam that makes
// that literal in code. A Target advances simulated time under its own
// workload, exposes monitoring data (metric sources, a component call
// matrix, request paths), accepts fault injection, and applies recovery
// actions — everything internal/core needs to detect failures, assemble a
// FailureContext and run the Figure 3 loop, and nothing more. The learning
// layers still see only monitoring data, never a concrete simulator type,
// so heterogeneous targets can pool experience into one shared knowledge
// base: the harness assigns symptom dimensions by metric *name* through
// detect.DefaultSymptomSpace, so shared names (the svc.* block, tier
// utilizations) land at identical indices for every kind, names unique to
// one kind get dimensions of their own (zero — no anomaly — elsewhere),
// and the synopsis distance tolerates the differing vector lengths.
//
// Three targets ship: Auction, wrapping the RUBiS-style simulator of
// internal/service byte-for-byte unchanged in behavior; Replicated, a
// three-tier topology (1 web, 2 app replicas, primary/standby DB with
// failover routing) whose faults are replica-partial and whose fixes are
// rebalance/failover — episodes the single-image auction service cannot
// produce; and process (internal/targets/process), which supervises a
// real child process on wall-clock ticks. The two simulated targets share
// their load shaping (one workload.Shaper each) and their queueing curve
// (service.Inflation); their topologies, faults and fixes are their own.
// New targets register through the facade's RegisterTarget; see
// ADDING_TARGETS.md for the walkthrough.
package targets

import (
	"fmt"
	"sort"
	"strings"

	"selfheal/internal/catalog"
	"selfheal/internal/clock"
	"selfheal/internal/detect"
	"selfheal/internal/metrics"
	"selfheal/internal/synopsis"
	"selfheal/internal/trace"
)

// Action is a concrete recovery action (a fix plus its target), shared
// with the learning layers.
type Action = synopsis.Action

// Fault is the target-agnostic view of one injectable failure: what kind
// it is, what caused it, what it strikes, and its ground-truth fix. It
// deliberately omits the injection mechanics — those belong to the target
// that manufactured the fault, and Target.Inject rejects faults built for
// a different target kind. The simulator's faults.Fault satisfies this
// interface, as do the Replicated target's fault types.
type Fault interface {
	// Kind is the catalog failure type.
	Kind() catalog.FaultKind
	// Cause is the Figure 1 cause category.
	Cause() catalog.Cause
	// Target names the component/replica/tier the fault strikes ("" if
	// service-wide).
	Target() string
	// CorrectFix is the ground-truth fix and its target, used only to
	// label held-out data and play the administrator (Figure 3 lines
	// 18–21); the learning layers never read it.
	CorrectFix() (catalog.FixID, string)
}

// FaultGen draws random fault instances for campaigns, scoped to one
// target's catalog.
type FaultGen interface {
	// Next draws one fault instance.
	Next() Fault
}

// Spec is a target's static catalog: the vocabulary one kind of managed
// system shares with the healing stack before any instance exists.
type Spec struct {
	// Name is the registered target kind ("auction", "replicated", ...).
	Name string
	// Description is a one-line summary for help output.
	Description string
	// FaultKinds enumerates the failures this target can suffer.
	FaultKinds []catalog.FaultKind
	// CandidateFixes maps each fault kind to its candidate fixes in
	// preference order — the target-scoped analogue of the paper's
	// Table 1.
	CandidateFixes map[catalog.FaultKind][]catalog.FixID
	// Tiers lists the target's tiers front to back.
	Tiers []catalog.Tier
	// SLO is the target's default service-level objective.
	SLO detect.SLO
	// Mixes names the workload mixes the target understands; the first
	// entry is the default.
	Mixes []string
	// Locators says, for each targeted fix, how the target's own metrics
	// name the fix's target (FailureContext.Localise). A fix without one
	// takes its target from the knowledge base's nearest exemplar.
	Locators map[catalog.FixID]Locator
}

// LocateRule is how a Locator reads the metrics of its candidates.
type LocateRule uint8

// The locate rules, by what they score a metric with. Each picks the
// candidate with the largest score over its metrics and abstains when no
// score is above zero: no candidate is anomalous in the rule's direction.
const (
	LargestAbsZ   LocateRule = iota // its symptom |z|
	LargestZ                        // its symptom z
	HighestLatest                   // its live (latest) value
	LowestZ                         // its symptom -z
)

// Candidate is one target a Locator can name, with the metrics that speak
// for it.
type Candidate struct {
	Target  string
	Metrics []string
}

// Locator localises one targeted fix: Rule applied to the Candidates'
// metrics, ties going to the first candidate in declared order.
type Locator struct {
	Rule       LocateRule
	Candidates []Candidate
}

// PerTarget builds one single-metric candidate per name, whose metric is
// prefix+name+suffix.
func PerTarget(names []string, prefix, suffix string) []Candidate {
	out := make([]Candidate, len(names))
	for i, n := range names {
		out[i] = Candidate{Target: n, Metrics: []string{prefix + n + suffix}}
	}
	return out
}

// HasKind reports whether k is in the target's fault catalog.
func (s Spec) HasKind(k catalog.FaultKind) bool {
	for _, have := range s.FaultKinds {
		if have == k {
			return true
		}
	}
	return false
}

// ValidateKinds checks every kind against the target's catalog; unknown
// kinds produce an error listing the valid ones.
func (s Spec) ValidateKinds(kinds []catalog.FaultKind) error {
	var bad []string
	for _, k := range kinds {
		if !s.HasKind(k) {
			bad = append(bad, k.String())
		}
	}
	if len(bad) == 0 {
		return nil
	}
	valid := make([]string, len(s.FaultKinds))
	for i, k := range s.FaultKinds {
		valid[i] = k.String()
	}
	sort.Strings(bad)
	return fmt.Errorf("targets: target %q cannot inject %s (valid kinds: %s)",
		s.Name, strings.Join(bad, ", "), strings.Join(valid, ", "))
}

// ValidMix reports whether the target understands the named workload mix
// ("" always means the default).
func (s Spec) ValidMix(mix string) bool {
	if mix == "" {
		return true
	}
	for _, m := range s.Mixes {
		if m == mix {
			return true
		}
	}
	return false
}

// Config parameterizes one target instance.
type Config struct {
	// Seed makes the instance deterministic; targets derive their
	// internal sub-streams from it.
	Seed int64
	// Mix names the workload mix ("" = the spec's default).
	Mix string
}

// Target is one managed system under healing: it advances simulated time
// under its own workload, exposes the monitoring data the detection and
// learning layers consume, and accepts the fault injections and recovery
// actions of its catalog. Implementations must be deterministic in their
// Config.Seed; they need not be safe for concurrent use (each fleet
// replica owns its target).
type Target interface {
	// Spec returns the target's static catalog.
	Spec() Spec
	// Now returns the current simulated tick.
	Now() int64
	// Tick advances one tick under workload and reports the health
	// sample the SLO monitor consumes.
	Tick() detect.Sample
	// Sources returns the target's metric sources, polled each tick into
	// the multidimensional series of §4.2. Stable for the target's
	// lifetime.
	Sources() []metrics.Source
	// CallMatrix returns the last tick's component call matrix (rows:
	// callers, cols: callees). It may be computed on demand, but any call
	// before the next Tick, after an Apply too, returns that tick's
	// matrix. The returned slices may be reused between ticks; callers
	// must copy what they keep.
	CallMatrix() [][]float64
	// CallMatrixRows returns the number of caller rows.
	CallMatrixRows() int
	// CallCallees names the callee columns.
	CallCallees() []string
	// SamplePaths draws representative request paths from the live
	// state, for path-based failure management.
	SamplePaths() []trace.Path
	// Inject applies a fault manufactured by this target's NewFaults (or
	// constructors). Faults built for another target kind are rejected.
	Inject(f Fault) error
	// Reap drops faults whose effects are gone from the live state. A
	// fault still live stays active until it clears, is healed, or a
	// FaultClearer withdraws it.
	Reap()
	// CorrectFix plays the administrator of Figure 3 lines 19–20: the
	// ground-truth fix for the first still-active fault, diagnosed from
	// the live failure state.
	CorrectFix() (Action, bool)
	// Apply performs a recovery action and returns how many ticks the
	// system needs before a meaningful success check. Unknown fixes and
	// nonsense targets return errors; the healing loop treats those as
	// failed attempts.
	Apply(a Action) (settleTicks int64, err error)
	// NewFaults builds a deterministic random fault generator over the
	// given kinds (the whole catalog when empty), validating every kind
	// against the spec.
	NewFaults(seed int64, kinds ...catalog.FaultKind) (FaultGen, error)
}

// Optional target capabilities. A Target advertises each by implementing
// the interface; callers type-assert and degrade (or refuse the feature)
// when the assertion fails. The scenario engine (internal/scenario) is
// the main consumer: its workload directives need a WorkloadShaper, its
// declarative fault specs a FaultMaker, its flapping faults a
// FaultClearer, and its grey failures a PartialInjector. The healer
// needs a FaultClearer too: RunEpisode withdraws the fault its episode
// injected before returning, so the next episode starts clean. Every
// built-in target implements FaultMaker, and gets FaultClearer from the
// FaultSet it embeds; the auction and replicated targets also implement
// WorkloadShaper, and the replicated target PartialInjector.

// WorkloadShaper reshapes a target's offered load at runtime: constant
// scaling, the ±25% diurnal modulation, slow mix drift, and scheduled
// multiplicative surges. Tick arguments are absolute target ticks.
type WorkloadShaper interface {
	// SetLoadScale applies a constant multiplier to the whole mix.
	SetLoadScale(factor float64)
	// EnableDiurnal turns on day/night modulation (period 86400 ticks).
	EnableDiurnal()
	// SetLoadDrift makes the mix drift by perTick per tick toward the
	// target's read-heavy classes — workload evolution, §5.2.
	SetLoadDrift(perTick float64)
	// AddLoadSurge schedules a surge multiplying the whole mix by factor
	// over the absolute tick interval [start, end).
	AddLoadSurge(start, end int64, factor float64)
}

// FaultMaker manufactures fault instances from a declarative spec — the
// bridge from a scenario file's (kind, component, magnitude, duration)
// tuple to the target's concrete fault types. Construction must be
// deterministic (no randomness) so scenario runs are replayable:
// unspecified fields take fixed mid-range defaults, not random draws.
type FaultMaker interface {
	// MakeFault builds a fault of kind striking component ("" = the
	// kind's default component) at magnitude (the kind's main severity
	// knob; 0 = default) lasting duration ticks for kinds that are
	// naturally time-bounded (0 = default duration).
	MakeFault(kind catalog.FaultKind, component string, magnitude float64, duration int64) (Fault, error)
}

// FaultClearer actively reverts an injected fault's effect — the
// scripted "repair" between a flapping fault's on-phases, and the end of
// a campaign episode whose fault is still live — distinct from healing:
// no fix is applied, the underlying cause simply goes quiet. A fault is
// withdrawn only while the target still holds it, by the identity the
// caller injected; a severity-scaled copy from InjectPartial is held
// under the caller's fault, so clearing that fault quiets the copy. See
// FaultSet for the whole rule.
type FaultClearer interface {
	ClearFault(f Fault) error
}

// CallMatrixSupporter reports which cells of the target's call matrix can
// ever be nonzero — the static call topology. Call matrices are mostly
// empty (a component calls a handful of the callees), and the monitoring
// loop retains and accumulates a matrix every tick; a harness that knows
// the support copies and folds ~10% of the cells and skips the rest.
// Targets whose topology can change at runtime must not implement this.
type CallMatrixSupporter interface {
	// CallMatrixSupport returns the (row, col) pairs that may hold
	// nonzero values. The result must be stable for the target's
	// lifetime; every cell outside it must always read zero.
	CallMatrixSupport() [][2]int
}

// PartialInjector injects a fault at fractional severity in (0, 1): a
// grey failure, strong enough to hurt tail behavior but weak enough to
// stay below the SLO monitor's detection thresholds. Severity 1 is
// exactly Inject. Faults whose effect is inherently binary (a dead node)
// return an error.
type PartialInjector interface {
	InjectPartial(f Fault, severity float64) error
}

// Clocked is implemented by targets whose ticks represent wall-clock
// time — a supervisor probing real OS processes cannot have its ticks
// driven at CPU speed, or every probe reads the same instant. The
// harness adopts the target's clock and paces every Step with it;
// targets that do not implement Clocked run under the logical clock,
// byte-identical to the pre-Clock harness. The returned clock must be
// owned by this target instance (clocks are stateful and unsynchronized).
type Clocked interface {
	Clock() clock.Clock
}

// HarnessTuning overrides the monitoring/healing cadence defaults for
// targets whose ticks cost real time. The stock defaults assume free
// simulated ticks (240-tick warmups, 600-tick admin delays); at 50 ms a
// tick those are minutes of wall time per episode. Zero-valued fields
// keep the harness default, so a target overrides only what it must.
type HarnessTuning struct {
	// WarmupTicks is the healthy run that freezes the baseline.
	WarmupTicks int
	// WindowTicks is the detection window Nc.
	WindowTicks int
	// DetectK of WindowTicks violated ticks declares a failure.
	DetectK int
	// HistoryTicks bounds the metric history an approach that reads
	// FailureContext.History sees, and the healer's wait for an injected
	// fault to be detected.
	HistoryTicks int
	// CheckTicks bounds the post-fix clean-window wait.
	CheckTicks int
	// AdminDelayTicks is the human response time after NotifyAdmin.
	AdminDelayTicks int
	// EpisodeBudget bounds one episode's total ticks.
	EpisodeBudget int
}

// Tuner is implemented by targets that need non-default harness/healer
// cadence (typically wall-clock targets, alongside Clocked). The facade
// applies the tuning when it builds the system around the target.
type Tuner interface {
	HarnessTuning() HarnessTuning
}
