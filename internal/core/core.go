// Package core is the paper's primary contribution: the automated
// learning-based healing framework of §3–§4. It defines the Approach
// interface every fix-identification technique implements (manual rules,
// the three diagnosis-based approaches, and FixSym), the FailureContext
// those approaches observe, the FixSym signature-based approach itself
// (§4.3.4), the Figure 3 healing loop and the hybrid combination with
// confidence ranking (§5.1). The §5.3 proactive forecaster is the
// experiments package's ablation code; no healer runs it.
package core

import (
	"cmp"
	"math"
	"slices"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/metrics"
	"selfheal/internal/stats"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
	"selfheal/internal/trace"
)

// Action is re-exported from synopsis: a fix plus its target.
type Action = synopsis.Action

// FailureContext is everything an approach may observe about a detected
// failure. It deliberately contains only monitoring data — never the
// injected fault — preserving the separation between the service and the
// self-healing logic.
type FailureContext struct {
	// DetectedAt is the tick at which the SLO monitor declared the failure.
	DetectedAt int64
	// Symptom is the z-score symptom vector of the current window against
	// the healthy baseline — the signature FixSym classifies (§4.3.4).
	// Symptom[i] is the z-score of Schema column i; diagnosis approaches
	// rely on that positional correspondence.
	Symptom []float64
	// KBSymptom is the name-aligned symptom vector for knowledge bases
	// (detect.SymptomSpace): shared metric names occupy identical
	// dimensions across target kinds, so heterogeneous fleets can pool
	// experience. Nil when the context was assembled without a space;
	// Features falls back to Symptom then. In a single-kind process the
	// two vectors are equal.
	KBSymptom []float64
	// Schema names Symptom's dimensions.
	Schema *metrics.Schema
	// Baseline is the frozen healthy baseline.
	Baseline *metrics.Baseline
	// Recent is the raw metric window around detection (the Nc window),
	// copied out of the harness's history so it pins none of its blocks.
	Recent *metrics.Series
	// History is the longer raw window correlation analysis reads
	// (Example 3): the last HistoryTicks rows, healthy operation
	// included. The harness keeps that much history only for an approach
	// that declares EvidenceHistory; for any other approach History is
	// the Recent window.
	History *metrics.Series
	// CallCallees names the callee columns of the call matrix.
	CallCallees []string
	// CallAnomalies is the χ² call-matrix localization (Example 2),
	// strongest first; empty when no component's call split deviates.
	// CallCallees and CallAnomalies are nil unless the approach declares
	// EvidenceCalls.
	CallAnomalies []detect.Anomaly
	// Paths are request paths sampled around detection (§4.2's "path
	// (control and data flow) ... of requests through the multitier
	// service"), for path-based failure management (ref [8]). Nil unless
	// the approach declares EvidencePaths.
	Paths []trace.Path
	// Locators are the target's locators (targets.Spec.Locators) resolved
	// against Schema, read by Localise. Like Symptom and Recent, every
	// context carries them.
	Locators Locators
	// Diagnosis is the target's diagnosis vocabulary resolved against
	// Schema, which every context carries too.
	Diagnosis Diagnosis
}

// Locators maps each targeted fix to its resolved locator.
type Locators map[catalog.FixID]locator

// locator is a targets.Locator with its metric names resolved to schema
// columns, candidate by candidate in declared order: of[i] is the target
// column cols[i] speaks for.
type locator struct {
	rule targets.LocateRule
	cols []int
	of   []string
}

// ResolveLocators resolves a target's locators against its schema once,
// for every context its harness builds. Metric names the schema lacks are
// dropped.
func ResolveLocators(spec map[catalog.FixID]targets.Locator, schema *metrics.Schema) Locators {
	out := make(Locators, len(spec))
	for fix, l := range spec {
		r := locator{rule: l.Rule}
		for _, c := range l.Candidates {
			for _, name := range c.Metrics {
				if col, ok := schema.Index(name); ok {
					r.cols = append(r.cols, col)
					r.of = append(r.of, c.Target)
				}
			}
		}
		out[fix] = r
	}
	return out
}

// Localise names the target of a targeted fix from this failure's own
// metrics, by the rule the target declares for the fix: the candidate
// with the largest score over its metrics, the first in declared order on
// a tie. ok is false when the target declares no locator for fix, or no
// candidate scores above zero.
func (c *FailureContext) Localise(fix catalog.FixID) (target string, ok bool) {
	return c.localise(fix, c.Locators[fix].rule)
}

// localise is Localise by the given rule rather than the declared one.
func (c *FailureContext) localise(fix catalog.FixID, rule targets.LocateRule) (target string, ok bool) {
	l := c.Locators[fix]
	vals := c.Symptom
	if rule == targets.HighestLatest || rule == targets.HighestMean {
		if c.Recent == nil || c.Recent.Len() == 0 {
			return "", false
		}
		vals = c.Recent.Row(c.Recent.Len() - 1)
	}
	best := 0.0
	for i, col := range l.cols {
		s := vals[col]
		switch rule {
		case targets.LargestAbsZ:
			s = math.Abs(s)
		case targets.LowestZ:
			s = -s
		case targets.HighestMean:
			s = stats.Mean(c.Recent.ColIdx(col))
		}
		if s > best {
			target, best = l.of[i], s
		}
	}
	return target, target != ""
}

// Candidates returns the targets fix's locator can name, in order.
func (c *FailureContext) Candidates(fix catalog.FixID) []string {
	return slices.Compact(slices.Clone(c.Locators[fix].of))
}

// Diagnosis is a target's diagnosis vocabulary (targets.Spec.Diagnosis),
// each rule's metric family resolved to the schema columns it matches.
type Diagnosis struct {
	components       []Action
	symptoms, manual []rule
}

// rule is a targets.Symptom and the columns its family matches.
type rule struct {
	targets.Symptom
	cols []int
}

// ResolveDiagnosis resolves a target's diagnosis vocabulary against its
// schema once, for every context its harness builds.
func ResolveDiagnosis(d targets.Diagnosis, schema *metrics.Schema) Diagnosis {
	resolve := func(syms []targets.Symptom) []rule {
		out := make([]rule, len(syms))
		for i, s := range syms {
			out[i].Symptom = s
			for col, name := range schema.Names() {
				if s.Matches(name) {
					out[i].cols = append(out[i].cols, col)
				}
			}
		}
		return out
	}
	return Diagnosis{components: d.Components, symptoms: resolve(d.Symptoms), manual: resolve(d.Manual)}
}

// Implicated returns the fixes the target's symptom rules name when
// column col deviates by dev (a z-score, a correlation), in preference
// order, and whether a rule marks the column a generic saturation gauge.
func (c *FailureContext) Implicated(col int, dev float64) (acts []Action, generic bool) {
	callee := "" // the χ² test's strongest callee, if any
	if len(c.CallAnomalies) > 0 {
		callee = c.CallCallees[c.CallAnomalies[0].Col]
	}
	for _, r := range c.Diagnosis.symptoms {
		if !r.Deviates(dev) || !slices.Contains(r.cols, col) {
			continue
		}
		generic = generic || r.Generic
		if a, ok := c.ComponentFix(callee); r.Callee && ok {
			acts = append(acts, a)
		}
		for _, f := range r.Fixes {
			if a, ok := c.remedy(f, col, c.Locators[f.Fix].rule); ok {
				acts = append(acts, a)
			}
		}
	}
	return acts, generic
}

// ComponentFix returns the target's fix for a suspect component: the
// first of its component fixes whose locator lists the component (with a
// metric the schema carries), or that names its own target.
func (c *FailureContext) ComponentFix(component string) (Action, bool) {
	for _, f := range c.Diagnosis.components {
		if f.Target != "" || slices.Contains(c.Locators[f.Fix].of, component) {
			f.Target = cmp.Or(f.Target, component)
			return f, true
		}
	}
	return Action{}, false
}

// ManualFixes returns, rule by rule in priority order, the fixes of the
// target's manual rules whose metric's live value is past their Limit.
func (c *FailureContext) ManualFixes() [][]Action {
	out := make([][]Action, len(c.Diagnosis.manual))
	if c.Recent == nil || c.Recent.Len() == 0 {
		return out
	}
	latest := c.Recent.Row(c.Recent.Len() - 1)
	for i, r := range c.Diagnosis.manual {
		for _, col := range r.cols {
			if !r.Deviates(latest[col] - r.Limit) {
				continue
			}
			for _, f := range r.Fixes {
				if a, ok := c.remedy(f, col, targets.HighestMean); ok {
					out[i] = append(out[i], a)
				}
			}
		}
	}
	return out
}

// remedy fills in the target of a rule's fix f that column col
// implicates: its own, else the candidate of its locator that lists col,
// else the locator's answer by rule. A fix with neither takes none.
func (c *FailureContext) remedy(f Action, col int, rule targets.LocateRule) (Action, bool) {
	l, ok := c.Locators[f.Fix]
	if i := slices.Index(l.cols, col); f.Target == "" && ok && i >= 0 {
		f.Target = l.of[i]
	} else if f.Target == "" && ok {
		f.Target, ok = c.localise(f.Fix, rule)
		return f, ok
	}
	return f, true
}

// Features returns the vector the learning layers consume: the
// name-aligned KBSymptom when the harness built one, else the
// schema-positional Symptom.
func (c *FailureContext) Features() []float64 {
	if c.KBSymptom != nil {
		return c.KBSymptom
	}
	return c.Symptom
}

// ZScore returns the symptom z-score of the named metric (0 if unknown).
func (c *FailureContext) ZScore(name string) float64 {
	i, ok := c.Schema.Index(name)
	if !ok {
		return 0
	}
	return c.Symptom[i]
}

// CurrentMean returns the current-window mean of the named metric.
func (c *FailureContext) CurrentMean(name string) float64 {
	i, ok := c.Schema.Index(name)
	if !ok {
		return 0
	}
	col := c.Recent.ColIdx(i)
	if len(col) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range col {
		s += v
	}
	return s / float64(len(col))
}

// Latest returns the most recent value of the named metric — the live
// gauge a threshold rule reads. The detection window can straddle fault
// onset, so window means understate fresh deviations.
func (c *FailureContext) Latest(name string) float64 {
	i, ok := c.Schema.Index(name)
	if !ok || c.Recent.Len() == 0 {
		return 0
	}
	return c.Recent.Row(c.Recent.Len() - 1)[i]
}

// BaselineMean returns the healthy-baseline mean of the named metric.
func (c *FailureContext) BaselineMean(name string) float64 {
	i, ok := c.Schema.Index(name)
	if !ok {
		return 0
	}
	return c.Baseline.Means[i]
}

// Approach is one fix-identification technique (§4.3). Recommend proposes
// the next action given what has already been tried this episode; Observe
// feeds back the outcome of an attempt so learning approaches can update
// their synopses (Figure 3 lines 14–15 and 20).
type Approach interface {
	Name() string
	Recommend(ctx *FailureContext, tried []Action) (Action, float64, bool)
	Observe(ctx *FailureContext, action Action, success bool)
}

// Observation is one deferred learn event: the outcome of an attempt,
// buffered by a batching Healer for delivery at episode granularity.
type Observation struct {
	Ctx     *FailureContext
	Action  Action
	Success bool
}

// ObserveBatcher is implemented by approaches that can fold many labeled
// attempts in one step. A batching Healer prefers it over per-observation
// Observe calls so that synopses which refit on every label (AdaBoost,
// KMeans) pay the refit once per flush, and a shared fleet knowledge base
// takes one writer lock per episode instead of one per attempt.
type ObserveBatcher interface {
	ObserveBatch(obs []Observation)
}

// Evidence is a set of the optional evidence a FailureContext can carry
// beyond the symptom vector and the detection window. Gathering it costs
// the harness work every tick or at every detection, so a harness gathers
// only what its healer's approach declares it reads (EvidenceReader).
type Evidence uint8

// The optional evidence an approach may declare.
const (
	// EvidenceHistory is FailureContext.History past the detection
	// window: the harness keeps HistoryTicks rows of metric history.
	EvidenceHistory Evidence = 1 << iota
	// EvidencePaths is FailureContext.Paths, sampled at detection.
	EvidencePaths
	// EvidenceCalls is FailureContext.CallCallees and CallAnomalies: the
	// harness retains every tick's call matrix for the χ² test.
	EvidenceCalls

	// EvidenceAll is everything; a harness no healer has configured
	// gathers it.
	EvidenceAll = EvidenceHistory | EvidencePaths | EvidenceCalls
)

// EvidenceReader is implemented by approaches that read optional evidence.
// An approach that does not implement it reads none: its History is the
// Recent window and its Paths and CallAnomalies are nil.
type EvidenceReader interface {
	Evidence() Evidence
}

// evidenceOf returns the optional evidence a declares it reads.
func evidenceOf(a Approach) Evidence {
	if r, ok := a.(EvidenceReader); ok {
		return r.Evidence()
	}
	return 0
}

// triedSet builds the typed exclusion filter synopses consume: nil (no
// exclusions) on the first attempt, a set-backed ActionFilter afterwards.
func triedSet(tried []Action) *synopsis.ActionFilter {
	return synopsis.ExcludeActions(tried...)
}

// FixSym is the paper's signature-based approach (§4.3.4, Figure 3): it
// learns a synopsis relating symptom signatures to the fixes that worked
// (and the ones that did not), without diagnosing root causes.
type FixSym struct {
	Syn synopsis.Synopsis
}

// NewFixSym builds a FixSym approach over the given synopsis.
func NewFixSym(syn synopsis.Synopsis) *FixSym { return &FixSym{Syn: syn} }

// Name implements Approach.
func (f *FixSym) Name() string { return "fixsym-" + f.Syn.Name() }

// Recommend implements Approach: query the current synopsis for the most
// probable fix not yet attempted (Figure 3 line 9). The fix goes first to
// the target the failure's own metrics point at (FailureContext.Localise);
// once that has been tried, or when the fix does not localise, to the
// target of the fix's nearest stored exemplar.
func (f *FixSym) Recommend(ctx *FailureContext, tried []Action) (Action, float64, bool) {
	sug, ok := f.Syn.Suggest(ctx.Features(), triedSet(tried))
	if !ok {
		return Action{}, 0, false
	}
	if target, ok := ctx.Localise(sug.Action.Fix); ok {
		if a := (Action{Fix: sug.Action.Fix, Target: target}); !slices.Contains(tried, a) {
			return a, sug.Confidence, true
		}
	}
	return sug.Action, sug.Confidence, true
}

// Observe implements Approach: fold the attempt's outcome into the synopsis
// (Figure 3 line 15; line 20 for administrator-provided fixes).
func (f *FixSym) Observe(ctx *FailureContext, action Action, success bool) {
	f.Syn.Add(synopsis.Point{X: ctx.Features(), Action: action, Success: success})
}

// ObserveBatch implements ObserveBatcher: the whole batch reaches the
// synopsis through one AddBatch.
func (f *FixSym) ObserveBatch(obs []Observation) {
	pts := make([]synopsis.Point, len(obs))
	for i, o := range obs {
		pts[i] = synopsis.Point{X: o.Ctx.Features(), Action: o.Action, Success: o.Success}
	}
	f.Syn.AddBatch(pts)
}
