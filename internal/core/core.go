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
	"selfheal/internal/detect"
	"selfheal/internal/metrics"
	"selfheal/internal/synopsis"
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
	// Recent is the raw metric window around detection (the Nc window).
	Recent *metrics.Series
	// History is the longer raw window correlation analysis reads
	// (Example 3): the last HistoryTicks rows, healthy operation
	// included. The harness keeps that much history only for an approach
	// that declares it reads History (HistoryReader); for any other
	// approach History is the Recent window.
	History *metrics.Series
	// CallCallees names the callee columns of the call matrix.
	CallCallees []string
	// CallAnomalies is the χ² call-matrix localization (Example 2),
	// strongest first; empty when no component's call split deviates.
	CallAnomalies []detect.Anomaly
	// Paths are request paths sampled around detection (§4.2's "path
	// (control and data flow) ... of requests through the multitier
	// service"), for path-based failure management (ref [8]).
	Paths []trace.Path
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

// ProposalAborter is implemented by approaches (Hybrid) that keep
// per-recommendation bookkeeping awaiting the matching Observe. When an
// episode is cancelled mid-verification that Observe never comes; the
// healer calls AbandonProposal so the stranded bookkeeping cannot
// misroute credit for later outcomes of the same action.
type ProposalAborter interface {
	AbandonProposal(action Action)
}

// HistoryReader is implemented by approaches that read
// FailureContext.History. NewHealer consults it: the harness keeps
// HistoryTicks rows of metric history for an approach that reads History,
// and only the warm-up window for any other, whose History is then the
// Recent window.
type HistoryReader interface {
	ReadsHistory() bool
}

// readsHistory reports whether a declares that it reads
// FailureContext.History.
func readsHistory(a Approach) bool {
	r, ok := a.(HistoryReader)
	return ok && r.ReadsHistory()
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
// probable fix not yet attempted (Figure 3 line 9).
func (f *FixSym) Recommend(ctx *FailureContext, tried []Action) (Action, float64, bool) {
	sug, ok := f.Syn.Suggest(ctx.Features(), triedSet(tried))
	if !ok {
		return Action{}, 0, false
	}
	return sug.Action, sug.Confidence, true
}

// Observe implements Approach: fold the attempt's outcome into the synopsis
// (Figure 3 line 15; line 20 for administrator-provided fixes).
func (f *FixSym) Observe(ctx *FailureContext, action Action, success bool) {
	f.Syn.Add(synopsis.Point{X: ctx.Features(), Action: action, Success: success})
}

// ObserveBatch implements ObserveBatcher: the whole batch reaches the
// synopsis through one AddBatch when it supports batching.
func (f *FixSym) ObserveBatch(obs []Observation) {
	pts := make([]synopsis.Point, len(obs))
	for i, o := range obs {
		pts[i] = synopsis.Point{X: o.Ctx.Features(), Action: o.Action, Success: o.Success}
	}
	synopsis.AddAll(f.Syn, pts)
}
