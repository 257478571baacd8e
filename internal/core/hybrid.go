package core

// Hybrid combines FixSym with diagnosis-based approaches — the §5.1
// research-agenda design: "combining the signature-based approach with one
// or more of the diagnosis-based approaches that find the cause of a new
// failure" — ranked by confidence (§5.2) as a gate: FixSym answers when it
// is confident, else the first diagnoser that answers.
//
// It realizes the efficiency observation of §5.1: once FixSym knows a
// signature, the "time-consuming diagnoses" are skipped.
type Hybrid struct {
	fixsym    *FixSym
	fallbacks []Approach
}

// gateConfidence is the FixSym confidence at which the hybrid answers
// without diagnosing: the top fix holds at least half of the ranked score
// mass. Measured for the nearest-neighbour synopsis.
const gateConfidence = 0.5

// NewHybrid gates fixsym in front of the fallbacks, which are asked in
// order.
func NewHybrid(fixsym *FixSym, fallbacks ...Approach) *Hybrid {
	return &Hybrid{fixsym: fixsym, fallbacks: fallbacks}
}

// Name implements Approach.
func (h *Hybrid) Name() string { return "hybrid" }

// Recommend implements Approach: FixSym's suggestion when its confidence
// clears the gate, else the first fallback's answer, else FixSym's
// low-confidence suggestion if it has one.
func (h *Hybrid) Recommend(ctx *FailureContext, tried []Action) (Action, float64, bool) {
	action, conf, ok := h.fixsym.Recommend(ctx, tried)
	if ok && conf >= gateConfidence {
		return action, conf, true
	}
	for _, a := range h.fallbacks {
		if fa, fconf, fok := a.Recommend(ctx, tried); fok {
			return fa, fconf, true
		}
	}
	return action, conf, ok
}

// Observe implements Approach: FixSym learns every outcome, so fixes the
// diagnosers found become signatures it knows. The diagnosers learn
// nothing.
func (h *Hybrid) Observe(ctx *FailureContext, action Action, success bool) {
	h.fixsym.Observe(ctx, action, success)
}

// ObserveBatch implements ObserveBatcher through FixSym's.
func (h *Hybrid) ObserveBatch(obs []Observation) { h.fixsym.ObserveBatch(obs) }

// Evidence implements EvidenceReader: the hybrid reads what any of its
// fallbacks reads; FixSym reads only what every context carries.
func (h *Hybrid) Evidence() Evidence {
	var e Evidence
	for _, a := range h.fallbacks {
		e |= evidenceOf(a)
	}
	return e
}
