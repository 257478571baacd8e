package core

import (
	"context"

	"selfheal/internal/clock"
	"selfheal/internal/detect"
	"selfheal/internal/metrics"
	"selfheal/internal/service"
	"selfheal/internal/targets"
	"selfheal/internal/workload"
)

// HarnessConfig sizes the monitoring/healing environment around a target.
type HarnessConfig struct {
	// Seed is the default auction target's workload seed (NewHarness).
	Seed int64
	// WarmupTicks is the healthy run used to freeze the baseline (the Nb
	// window of Example 2).
	WarmupTicks int
	// WindowTicks is the current-window size Nc used for detection,
	// symptom vectors and the χ² test.
	WindowTicks int
	// DetectK of WindowTicks violated ticks declares a failure.
	DetectK int
	// HistoryTicks is the metric history FailureContext.History carries
	// for correlation analysis, and it bounds the healer's wait for an
	// injected fault to become detectable: a failure surfacing later
	// would have its injection outside that history. The harness keeps
	// HistoryTicks rows only while its healer's approach declares
	// EvidenceHistory; otherwise, once the warm-up has frozen the
	// baseline, it keeps the WindowTicks rows BuildContext reads (or what
	// RetainRows asks for), and the wait is bounded all the same.
	HistoryTicks int
	SLO          detect.SLO
}

// DefaultHarnessConfig returns the standard experiment environment.
func DefaultHarnessConfig() HarnessConfig {
	return HarnessConfig{
		Seed:         42,
		WarmupTicks:  240,
		WindowTicks:  15,
		DetectK:      8,
		HistoryTicks: 2400,
		SLO:          detect.DefaultSLO(),
	}
}

// Harness couples a managed-system target with its monitoring stack —
// metric collection, SLO monitor, symptom builder, χ² call-matrix
// detector — and drives simulated time. All of its own logic goes through
// the targets.Target interface; it holds no knowledge of which system is
// underneath.
type Harness struct {
	Cfg HarnessConfig

	// Target is the managed system under healing.
	Target targets.Target

	Coll    *metrics.Collector
	Monitor *detect.Monitor
	Builder *detect.SymptomBuilder
	CallDet *detect.CallMatrixDetector

	// ring holds the last WindowTicks call matrices so the current χ²
	// window always covers the moments before detection; Step fills it,
	// and the χ² baseline, only while evidence holds EvidenceCalls. Slot
	// i holds one retained tick's values at the support cells, in support
	// order: call matrices are ~90% empty, so the per-tick copy and the χ²
	// folds touch only the cells the target's static call topology can
	// fill. The backing array is allocated once at construction and refilled in
	// place each tick, so the steady-state tick path allocates nothing
	// for call-matrix retention no matter how long the campaign runs.
	support    [][2]int
	ring       [][]float64
	ringPos    int
	ringFilled int

	// evidence is the optional evidence Step and BuildContext gather:
	// EvidenceAll until NewHealer narrows it to what the healer's approach
	// declares. Without EvidenceHistory Step keeps only the rows the other
	// readers need (see retained), and BuildContext hands out the
	// detection window as History.
	evidence Evidence
	// readRows is the most rows a direct reader of the series declared
	// through RetainRows.
	readRows int
	// locators and diagnosis are the target's, resolved once against the
	// schema and handed to every context.
	locators  Locators
	diagnosis Diagnosis

	// Clock paces Step: the target's own clock when it is
	// targets.Clocked (a supervisor of real processes ticks on wall
	// time), else the logical clock, a no-op. Never nil.
	Clock clock.Clock
	// paceCtx bounds the current pacing sleeps so a cancelled episode
	// stops between ticks instead of finishing a wall-clock sleep.
	// Managed by SetPaceContext; context.Background() outside any
	// cancellable loop.
	paceCtx context.Context

	// OnStep, when non-nil, observes every tick's health sample after the
	// monitor does — the seam the scenario engine uses to fire scripted
	// actions on the campaign clock no matter which loop is stepping
	// (healer settle windows and admin delays included). The hook must
	// not call Step itself. Nil (the default) costs nothing and changes
	// nothing.
	OnStep func(detect.Sample)
}

// NewHarness builds the default environment — the auction simulator at
// its default sizing under the bidding mix, workload seeded by cfg.Seed —
// and runs the warmup to freeze the healthy baseline.
func NewHarness(cfg HarnessConfig) *Harness {
	return NewTargetHarness(targets.NewAuctionWith(service.DefaultConfig(), workload.BiddingMix(), cfg.Seed), cfg)
}

// NewTargetHarness builds the environment around an already-constructed
// target and runs the warmup.
func NewTargetHarness(t targets.Target, cfg HarnessConfig) *Harness {
	h := &Harness{
		Cfg:      cfg,
		Target:   t,
		Coll:     metrics.NewCollector(t.Sources()...),
		Monitor:  detect.NewMonitor(cfg.SLO, cfg.DetectK, cfg.WindowTicks),
		CallDet:  detect.NewCallMatrixDetector(t.CallMatrixRows(), len(t.CallCallees())),
		evidence: EvidenceAll,
		paceCtx:  context.Background(),
	}
	h.locators = ResolveLocators(t.Spec().Locators, h.Coll.Series().Schema())
	h.diagnosis = ResolveDiagnosis(t.Spec().Diagnosis, h.Coll.Series().Schema())
	h.Clock = clock.Logical{}
	if c, ok := t.(targets.Clocked); ok {
		h.Clock = c.Clock()
	}
	h.support = t.CallMatrixSupport()
	w := len(h.support)
	backing := make([]float64, cfg.WindowTicks*w)
	h.ring = make([][]float64, cfg.WindowTicks)
	for i := range h.ring {
		h.ring[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	h.WarmUp()
	return h
}

// WarmUp runs the healthy target long enough to freeze the symptom
// baseline and the call-matrix baseline.
func (h *Harness) WarmUp() {
	for i := 0; i < h.Cfg.WarmupTicks; i++ {
		h.Step()
	}
	series := h.Coll.Series()
	base := metrics.NewBaseline(series.Tail(h.Cfg.WarmupTicks * 3 / 4))
	// Symptom dimensions are assigned by metric *name* through the
	// process-wide space, so vectors from different target kinds align on
	// their shared names — the contract that lets heterogeneous fleets
	// pool experience in one knowledge base. A single-kind process gets
	// the identity mapping (vectors identical to schema order).
	h.Builder = detect.NewAlignedSymptomBuilder(base, detect.DefaultSymptomSpace, series.Schema().Names())
}

// SetPaceContext binds the context that bounds wall-clock pacing sleeps
// and returns the previous binding, for callers to restore on exit. The
// healing loops and the scenario runner bind their episode context here
// so cancellation interrupts a paced Step between ticks; under the
// logical clock the binding is inert. Passing nil restores
// context.Background().
func (h *Harness) SetPaceContext(ctx context.Context) context.Context {
	prev := h.paceCtx
	if ctx == nil {
		ctx = context.Background()
	}
	h.paceCtx = ctx
	return prev
}

// Step advances one tick: the clock paces to the next tick boundary
// (instantly for simulators), then the target processes its workload,
// metrics are collected, the monitor observes, and, for a reader of
// EvidenceCalls, call matrices are accumulated (into the χ² baseline only
// while the target looks healthy). A cancelled pace still ticks — the
// surrounding loops check their context every iteration, so cancellation
// costs at most one extra tick rather than leaving Step without a sample
// to return.
func (h *Harness) Step() detect.Sample {
	_ = h.Clock.Pace(h.paceCtx)
	st := h.Target.Tick()
	h.Coll.Collect(h.Target.Now())
	h.Monitor.Observe(st)
	if h.evidence&EvidenceCalls != 0 {
		h.retainCallMatrix()
	}
	// Keep a sliding window of the last retained() rows.
	h.Coll.Series().TrimFront(h.retained())
	if h.OnStep != nil {
		h.OnStep(st)
	}
	return st
}

// retainCallMatrix copies this tick's call matrix into the ring, and into
// the χ² baseline while the target looks healthy.
func (h *Harness) retainCallMatrix() {
	m := h.Target.CallMatrix()
	healthy := !h.Monitor.Failing() && h.Monitor.CleanFor() > h.Cfg.WindowTicks
	cp := h.ring[h.ringPos]
	for i, rc := range h.support {
		cp[i] = m[rc[0]][rc[1]]
	}
	h.ringPos = (h.ringPos + 1) % len(h.ring)
	if healthy {
		h.CallDet.AccumulateBaselineCells(h.support, cp)
	}
	if h.ringFilled < h.Cfg.WindowTicks {
		h.ringFilled++
	}
}

// retained is how many metric rows Step keeps: HistoryTicks for a reader
// of EvidenceHistory. Otherwise it keeps the warm-up window until the
// baseline is frozen, and from then on the detection window BuildContext
// reads, or the rows RetainRows asked for if more; never more than
// HistoryTicks.
func (h *Harness) retained() int {
	if h.evidence&EvidenceHistory != 0 {
		return h.Cfg.HistoryTicks
	}
	keep := max(h.Cfg.WindowTicks, h.readRows)
	if h.Builder == nil {
		keep = max(keep, h.Cfg.WarmupTicks)
	}
	return min(h.Cfg.HistoryTicks, keep)
}

// RetainRows declares that the caller reads the last n rows of the metric
// series directly, the way an approach declares the evidence it reads:
// from now on Step keeps at least n rows (up to HistoryTicks).
func (h *Harness) RetainRows(n int) { h.readRows = max(h.readRows, n) }

// StepN advances n ticks and returns the last tick's sample.
func (h *Harness) StepN(n int) detect.Sample {
	var st detect.Sample
	for i := 0; i < n; i++ {
		st = h.Step()
	}
	return st
}

// BuildContext assembles the FailureContext for a failure detected now,
// with the optional evidence the harness gathers. Recent is a copy, so a
// context pins none of the series' blocks unless it carries History.
func (h *Harness) BuildContext() *FailureContext {
	series := h.Coll.Series()
	recent := series.TailCopy(h.Cfg.WindowTicks)
	symptom, kbSymptom := h.Builder.Vectors(recent)
	fctx := &FailureContext{
		DetectedAt: h.Target.Now(),
		Symptom:    symptom,
		KBSymptom:  kbSymptom,
		Schema:     series.Schema(),
		Baseline:   h.Builder.Baseline(),
		Recent:     recent,
		History:    recent,
		Locators:   h.locators,
		Diagnosis:  h.diagnosis,
	}
	if h.evidence&EvidenceHistory != 0 {
		fctx.History = series.Tail(h.Cfg.HistoryTicks)
	}
	if h.evidence&EvidenceCalls != 0 {
		// Rebuild the χ² current window from the matrix ring. Slots not
		// yet written this early in the run are skipped, exactly as the
		// lazily allocated ring used to skip nil entries.
		h.CallDet.ResetCurrent()
		for i := 0; i < h.ringFilled; i++ {
			h.CallDet.AccumulateCurrentCells(h.support, h.ring[i])
		}
		fctx.CallCallees = h.Target.CallCallees()
		fctx.CallAnomalies = h.CallDet.AnomalousCallees()
	}
	if h.evidence&EvidencePaths != 0 {
		fctx.Paths = h.Target.SamplePaths()
	}
	return fctx
}

// RunUntilFailing steps until the monitor declares a failure, maxTicks
// elapse, or the context is done; it reports whether a failure was
// detected.
func (h *Harness) RunUntilFailing(ctx context.Context, maxTicks int) bool {
	defer h.SetPaceContext(h.SetPaceContext(ctx))
	for i := 0; i < maxTicks; i++ {
		if ctx.Err() != nil {
			break
		}
		h.Step()
		if h.Monitor.Failing() {
			return true
		}
	}
	return h.Monitor.Failing()
}

// RunUntilRecovered steps until the monitor sees a full clean window,
// maxTicks elapse, or the context is done; it reports whether the service
// recovered.
func (h *Harness) RunUntilRecovered(ctx context.Context, maxTicks int) bool {
	defer h.SetPaceContext(h.SetPaceContext(ctx))
	for i := 0; i < maxTicks; i++ {
		if h.Monitor.Recovered() {
			return true
		}
		if ctx.Err() != nil {
			break
		}
		h.Step()
	}
	return h.Monitor.Recovered()
}
