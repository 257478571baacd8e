// Package detect implements failure detection (§4.1 "Detecting failures"):
// an SLO-compliance monitor with hysteresis, a user-activity monitor, the
// symptom-vector builder that turns metric windows into the feature vectors
// the learners consume, and the χ² call-matrix anomaly detector of the
// paper's Example 2.
package detect

import (
	"selfheal/internal/metrics"
)

// Sample is one tick's health reading as the SLO monitor sees it. It is
// deliberately target-agnostic — any managed system (the auction
// simulator, the replicated topology, a future real service) reduces its
// tick to these fields, so detection never depends on a concrete
// simulator type.
type Sample struct {
	// Arrivals is offered load this tick (requests).
	Arrivals float64
	// Errors is user-visible failed requests this tick.
	Errors float64
	// AvgLatencyMS is the mean served-request latency this tick.
	AvgLatencyMS float64
	// SLOViolations counts requests that individually missed their
	// latency objective or failed.
	SLOViolations float64
	// Down reports a whole-service outage.
	Down bool
}

// SLO is a service-level objective (§1: e.g. "all transactions complete
// within 1 second"): bounds on average latency, user-visible error rate,
// and the share of individual requests missing their latency target —
// the per-transaction form the paper's brokerage example uses.
type SLO struct {
	// MaxAvgLatencyMS bounds the per-tick mean served-request latency.
	MaxAvgLatencyMS float64
	// MaxErrorRate bounds user-visible errors per arrival.
	MaxErrorRate float64
	// MaxViolationShare bounds the fraction of individual requests
	// missing their own latency objective (0 disables the check).
	MaxViolationShare float64
}

// DefaultSLO matches the simulator's default operating point with ~3×
// headroom, so only genuine failures violate it.
func DefaultSLO() SLO {
	return SLO{MaxAvgLatencyMS: 250, MaxErrorRate: 0.02, MaxViolationShare: 0.08}
}

// Violated reports whether one tick breaks the objective. Ticks with no
// traffic cannot violate the SLO.
func (s SLO) Violated(st Sample) bool {
	if st.Down {
		return true
	}
	if st.Arrivals <= 0 {
		return false
	}
	if st.AvgLatencyMS > s.MaxAvgLatencyMS {
		return true
	}
	if st.Errors/st.Arrivals > s.MaxErrorRate {
		return true
	}
	// A failure confined to a minority request class (e.g. lock contention
	// on the bids table) can leave the average healthy while a visible
	// share of transactions miss their objective.
	return s.MaxViolationShare > 0 && st.SLOViolations/st.Arrivals > s.MaxViolationShare
}

// Monitor is an SLO-compliance monitor with K-of-N hysteresis: a failure is
// declared when at least K of the last N ticks violated the objective, and
// health is declared only after a clean run of N ticks — the "care should be
// taken to let the service recover fully" caveat of §4.1.
type Monitor struct {
	// SLO is the objective each tick is judged against.
	SLO SLO
	// K violated ticks out of the last N declare a failure.
	K, N int

	window   []bool
	pos      int
	filled   int
	cleanFor int
	// violCount is the number of true entries in window, maintained
	// incrementally so Failing is O(1) on the per-tick path.
	violCount int

	// Violations counts every violating tick ever observed; Reset keeps
	// it, so a caller can tell whether any tick between two reads was bad.
	Violations int64
}

// NewMonitor builds a K-of-N monitor.
func NewMonitor(slo SLO, k, n int) *Monitor {
	if n < 1 {
		n = 1
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return &Monitor{SLO: slo, K: k, N: n, window: make([]bool, n)}
}

// Observe folds one tick into the monitor and returns whether that tick
// violated the SLO.
func (m *Monitor) Observe(st Sample) bool {
	v := m.SLO.Violated(st)
	if m.window[m.pos] {
		m.violCount--
	}
	if v {
		m.violCount++
		m.Violations++
	}
	m.window[m.pos] = v
	m.pos = (m.pos + 1) % m.N
	if m.filled < m.N {
		m.filled++
	}
	if v {
		m.cleanFor = 0
	} else {
		m.cleanFor++
	}
	return v
}

// Failing reports whether a failure is currently declared (≥K of last N
// ticks violated).
func (m *Monitor) Failing() bool {
	if m.filled < m.K {
		return false
	}
	return m.violCount >= m.K
}

// Recovered reports whether the service has been clean for at least N
// consecutive ticks — the check-fix criterion of Figure 3 line 13.
func (m *Monitor) Recovered() bool { return m.cleanFor >= m.N }

// CleanFor returns the length of the current violation-free run.
func (m *Monitor) CleanFor() int { return m.cleanFor }

// SymptomBuilder turns metric windows into the symptom vectors the
// synopses learn over: per-column z-scores of the current window against a
// frozen healthy baseline, clamped so no single metric dominates distances.
type SymptomBuilder struct {
	baseline *metrics.Baseline
	clamp    float64
	// index maps schema column i to its symptom dimension (nil means the
	// identity: dimension i is column i).
	index []int
	dim   int
}

// NewSymptomBuilder builds a symptom builder over a healthy baseline,
// with dimensions in schema-column order.
func NewSymptomBuilder(baseline *metrics.Baseline) *SymptomBuilder {
	return &SymptomBuilder{baseline: baseline, clamp: 8}
}

// NewAlignedSymptomBuilder builds a symptom builder whose output
// dimensions are assigned by the shared SymptomSpace, so vectors from
// schemas with shared metric names align by name across target kinds.
// The first schema registered into a space gets the identity mapping —
// identical output to NewSymptomBuilder.
func NewAlignedSymptomBuilder(baseline *metrics.Baseline, space *SymptomSpace, names []string) *SymptomBuilder {
	b := NewSymptomBuilder(baseline)
	b.index = space.Indices(names)
	for _, d := range b.index {
		if d+1 > b.dim {
			b.dim = d + 1
		}
	}
	return b
}

// Baseline returns the underlying baseline.
func (b *SymptomBuilder) Baseline() *metrics.Baseline { return b.baseline }

// Vectors builds both symptom vectors for the current window from one
// pass of z-scores. Symptom is in schema-column order: symptom[i] is the
// z-score of schema column i, the positional correspondence diagnosis
// approaches rely on. Aligned is the name-aligned vector for knowledge
// bases: the same z-scores scattered into the shared SymptomSpace
// dimensions, so vectors from different target kinds compare by metric
// name; dimensions belonging to names this schema lacks read zero (no
// anomaly in a metric the target does not measure). A builder constructed
// without a space returns a copy of symptom as aligned: the two never
// share a backing array, so a consumer writing one cannot move the other.
func (b *SymptomBuilder) Vectors(window *metrics.Series) (symptom, aligned []float64) {
	symptom = b.baseline.ZScores(window, b.clamp)
	if b.index == nil {
		return symptom, append([]float64(nil), symptom...)
	}
	aligned = make([]float64, b.dim)
	for i, v := range symptom {
		aligned[b.index[i]] = v
	}
	return symptom, aligned
}
