package main

import (
	"fmt"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/detect"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
)

// The decorators below wrap the interfaces the healing loop is built from
// — Target, Approach, Synopsis, EventSink — and record a span around every
// call that crosses them. The wrapped system computes exactly what the
// bare one does; only the clock readings are extra.

// tracedTarget times a managed system from the harness's side. One harness
// Step calls, in order, Tick, then (after collecting metrics and feeding
// the monitor) CallMatrix, then the OnStep hook; so a step span opens at
// Tick and closes at stepDone, and the gap between Tick's return and the
// CallMatrix call is the monitoring stack's share of the step.
type tracedTarget struct {
	targets.Target
	tr *tracer

	lStep, lTick, lMonitor, lCallMatrix, lInject, lApply *layer

	// armed turns recording on. It stays off while the System is built and
	// warmed up, when no OnStep hook is there yet to close a step.
	armed bool

	// parent is the span steps and calls hang under (the episode phase in
	// progress); key is the episode number.
	parent open
	key    int64

	step    open
	tickEnd time.Time
}

func newTracedTarget(tr *tracer, t targets.Target) *tracedTarget {
	kind := "targets." + t.Spec().Name
	return &tracedTarget{
		Target: t, tr: tr,
		lStep:       tr.layer("core.harness.step"),
		lTick:       tr.layer(kind + ".tick"),
		lMonitor:    tr.layer("core.harness.monitor"),
		lCallMatrix: tr.layer(kind + ".callmatrix"),
		lInject:     tr.layer(kind + ".inject"),
		lApply:      tr.layer(kind + ".apply"),
	}
}

func (t *tracedTarget) Tick() detect.Sample {
	if !t.armed {
		return t.Target.Tick()
	}
	start := time.Now()
	t.step = t.tr.begin(t.lStep, start)
	st := t.Target.Tick()
	t.tickEnd = time.Now()
	t.tr.end(t.tr.begin(t.lTick, start), t.step, t.tickEnd, t.key)
	return st
}

func (t *tracedTarget) CallMatrix() [][]float64 {
	if !t.armed {
		return t.Target.CallMatrix()
	}
	start := time.Now()
	t.tr.end(t.tr.begin(t.lMonitor, t.tickEnd), t.step, start, t.key)
	m := t.Target.CallMatrix()
	t.tr.end(t.tr.begin(t.lCallMatrix, start), t.step, time.Now(), t.key)
	return m
}

// stepDone is installed as Harness.OnStep: the step that Tick opened ends
// here.
func (t *tracedTarget) stepDone(detect.Sample) {
	t.tr.end(t.step, t.parent, time.Now(), t.key)
}

func (t *tracedTarget) Inject(f targets.Fault) error {
	start := time.Now()
	err := t.Target.Inject(f)
	t.tr.end(t.tr.begin(t.lInject, start), t.parent, time.Now(), t.key)
	return err
}

func (t *tracedTarget) Apply(a targets.Action) (int64, error) {
	start := time.Now()
	settle, err := t.Target.Apply(a)
	t.tr.end(t.tr.begin(t.lApply, start), t.parent, time.Now(), t.key)
	return settle, err
}

// The optional capabilities of the wrapped target pass straight through,
// so the harness and the scenario runner treat the wrapper as they would
// the target itself.

func (t *tracedTarget) CallMatrixSupport() [][2]int {
	if s, ok := t.Target.(targets.CallMatrixSupporter); ok {
		return s.CallMatrixSupport()
	}
	return nil
}

func (t *tracedTarget) shaper() targets.WorkloadShaper { return t.Target.(targets.WorkloadShaper) }

func (t *tracedTarget) SetLoadScale(f float64)             { t.shaper().SetLoadScale(f) }
func (t *tracedTarget) EnableDiurnal()                     { t.shaper().EnableDiurnal() }
func (t *tracedTarget) SetLoadDrift(d float64)             { t.shaper().SetLoadDrift(d) }
func (t *tracedTarget) AddLoadSurge(s, e int64, f float64) { t.shaper().AddLoadSurge(s, e, f) }

func (t *tracedTarget) MakeFault(kind catalog.FaultKind, component string, magnitude float64, duration int64) (targets.Fault, error) {
	return t.Target.(targets.FaultMaker).MakeFault(kind, component, magnitude, duration)
}

func (t *tracedTarget) ClearFault(f targets.Fault) error {
	if c, ok := t.Target.(targets.FaultClearer); ok {
		return c.ClearFault(f)
	}
	return fmt.Errorf("target %s cannot clear faults", t.Spec().Name)
}

func (t *tracedTarget) InjectPartial(f targets.Fault, severity float64) error {
	if p, ok := t.Target.(targets.PartialInjector); ok {
		return p.InjectPartial(f, severity)
	}
	return fmt.Errorf("target %s cannot inject partial faults", t.Spec().Name)
}

// tracedSynopsis times the learner a FixSym approach consults. Suggest
// spans hang under the Recommend span in progress.
type tracedSynopsis struct {
	synopsis.Synopsis
	tr       *tracer
	lSuggest *layer
	parent   *open // the approach's Recommend span, while one is open
	key      *int64
}

func (s *tracedSynopsis) Suggest(x []float64, filter *synopsis.ActionFilter) (synopsis.Suggestion, bool) {
	start := time.Now()
	sug, ok := s.Synopsis.Suggest(x, filter)
	s.tr.end(s.tr.begin(s.lSuggest, start), *s.parent, time.Now(), *s.key)
	return sug, ok
}

// AddBatch keeps the batch path a Batcher learner has.
func (s *tracedSynopsis) AddBatch(ps []synopsis.Point) { synopsis.AddAll(s.Synopsis, ps) }

// tracedApproach times the fix-identification technique from the healer's
// side.
type tracedApproach struct {
	core.Approach
	tr                   *tracer
	lRecommend, lObserve *layer
	target               *tracedTarget // supplies the phase span and episode key
	current              open          // the Recommend span in progress
	// firstRecommend is when the episode's first Recommend began: the
	// healer builds the failure context between detection and that call.
	firstRecommend time.Time
}

// newTracedFixSym builds FixSym over a nearest-neighbour synopsis, both
// wrapped.
func newTracedFixSym(tr *tracer, target *tracedTarget) *tracedApproach {
	a := &tracedApproach{
		tr: tr, target: target,
		lRecommend: tr.layer("core.approach.recommend"),
		lObserve:   tr.layer("core.approach.observe"),
	}
	syn := &tracedSynopsis{
		Synopsis: synopsis.NewNearestNeighbor(), tr: tr,
		lSuggest: tr.layer("synopsis.suggest"), parent: &a.current, key: &target.key,
	}
	a.Approach = core.NewFixSym(syn)
	return a
}

func (a *tracedApproach) Recommend(ctx *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	start := time.Now()
	if a.firstRecommend.IsZero() {
		a.firstRecommend = start
	}
	a.current = a.tr.begin(a.lRecommend, start)
	action, conf, ok := a.Approach.Recommend(ctx, tried)
	a.tr.end(a.current, a.target.parent, time.Now(), a.target.key)
	a.current = open{}
	return action, conf, ok
}

func (a *tracedApproach) Observe(ctx *core.FailureContext, action core.Action, success bool) {
	start := time.Now()
	a.Approach.Observe(ctx, action, success)
	a.tr.end(a.tr.begin(a.lObserve, start), a.target.parent, time.Now(), a.target.key)
}

// ObserveBatch keeps the batched learn path FixSym has.
func (a *tracedApproach) ObserveBatch(obs []core.Observation) {
	start := time.Now()
	a.Approach.(core.ObserveBatcher).ObserveBatch(obs)
	a.tr.end(a.tr.begin(a.lObserve, start), a.target.parent, time.Now(), a.target.key)
}
