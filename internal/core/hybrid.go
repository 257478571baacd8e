package core

import "fmt"

// Hybrid combines FixSym with diagnosis-based approaches — the §5.1
// research-agenda design: "combining the signature-based approach with one
// or more of the diagnosis-based approaches that find the cause of a new
// failure", with confidence-based ranking across approaches (§5.2) and
// per-approach reliability weights learned from outcomes (the
// active-learning feedback loop).
//
// It also realizes the efficiency observation of §5.1: once FixSym has seen
// a signature, its suggestion wins the ranking and the "time-consuming
// diagnoses" are skipped.
type Hybrid struct {
	approaches []Approach
	weights    []float64
	// proposals remembers which sub-approach proposed each action so
	// Observe can credit or debit it. Values are FIFO queues: under
	// batched learning (LearnBatch > 1) the same action key can be
	// proposed again in a later episode before the earlier outcome has
	// flushed, and outcomes replay in arrival order, so the oldest
	// pending proposal is always the one an outcome belongs to.
	proposals map[string][]int
	// Alpha is the reliability EWMA step.
	Alpha float64
	// FixSymBias multiplies the confidence of learning approaches once
	// they have training data, encoding the §5.1 preference for cheap
	// signature lookups over fresh diagnoses.
	FixSymBias float64
}

// NewHybrid combines the given approaches; order breaks confidence ties.
func NewHybrid(approaches ...Approach) *Hybrid {
	w := make([]float64, len(approaches))
	for i := range w {
		w[i] = 1
	}
	return &Hybrid{
		approaches: approaches,
		weights:    w,
		proposals:  make(map[string][]int),
		Alpha:      0.15,
		FixSymBias: 1.5,
	}
}

// Name implements Approach.
func (h *Hybrid) Name() string { return "hybrid" }

// Weights returns the current per-approach reliability weights, aligned
// with the constructor order.
func (h *Hybrid) Weights() []float64 { return append([]float64(nil), h.weights...) }

// Recommend implements Approach: gather every sub-approach's best
// suggestion and pick the highest reliability-weighted confidence.
func (h *Hybrid) Recommend(ctx *FailureContext, tried []Action) (Action, float64, bool) {
	type prop struct {
		action Action
		score  float64
		idx    int
	}
	var best *prop
	for i, a := range h.approaches {
		action, conf, ok := a.Recommend(ctx, tried)
		if !ok {
			continue
		}
		score := conf * h.weights[i]
		if fs, isFS := a.(*FixSym); isFS && fs.Syn.TrainingSize() > 0 {
			score *= h.FixSymBias
		}
		if best == nil || score > best.score {
			best = &prop{action: action, score: score, idx: i}
		}
	}
	if best == nil {
		return Action{}, 0, false
	}
	h.proposals[best.action.Key()] = append(h.proposals[best.action.Key()], best.idx)
	return best.action, best.score, true
}

// Observe implements Approach: every sub-approach sees every outcome (so
// FixSym learns from diagnosis-found fixes too), and the proposing
// approach's reliability weight moves with the result.
func (h *Hybrid) Observe(ctx *FailureContext, action Action, success bool) {
	for _, a := range h.approaches {
		a.Observe(ctx, action, success)
	}
	h.creditProposal(action, success)
}

// ObserveBatch implements ObserveBatcher: each sub-approach takes the
// whole batch in one step when it can, and the reliability weights replay
// the outcomes in arrival order — the same end state the per-observation
// path reaches, since weights never feed back into Observe.
func (h *Hybrid) ObserveBatch(obs []Observation) {
	for _, a := range h.approaches {
		if ob, ok := a.(ObserveBatcher); ok {
			ob.ObserveBatch(obs)
			continue
		}
		for _, o := range obs {
			a.Observe(o.Ctx, o.Action, o.Success)
		}
	}
	for _, o := range obs {
		h.creditProposal(o.Action, o.Success)
	}
}

// AbandonProposal implements ProposalAborter: the healer abandoned its
// latest recommendation of this action (episode cancelled mid-check), so
// the newest pending proposal of the key — which is that recommendation —
// is retired uncredited.
func (h *Hybrid) AbandonProposal(action Action) {
	key := action.Key()
	q := h.proposals[key]
	switch len(q) {
	case 0:
	case 1:
		delete(h.proposals, key)
	default:
		h.proposals[key] = q[:len(q)-1]
	}
}

// Evidence implements EvidenceReader: the hybrid reads what any of its
// approaches reads.
func (h *Hybrid) Evidence() Evidence {
	var e Evidence
	for _, a := range h.approaches {
		e |= evidenceOf(a)
	}
	return e
}

// creditProposal moves the oldest pending proposer's reliability weight
// toward the observed outcome and retires that proposal.
func (h *Hybrid) creditProposal(action Action, success bool) {
	key := action.Key()
	q := h.proposals[key]
	if len(q) == 0 {
		return
	}
	i := q[0]
	if len(q) == 1 {
		delete(h.proposals, key)
	} else {
		h.proposals[key] = q[1:]
	}
	target := 0.0
	if success {
		target = 1
	}
	h.weights[i] += h.Alpha * (target - h.weights[i])
	if h.weights[i] < 0.1 {
		h.weights[i] = 0.1
	}
}

// String summarizes the hybrid for logs.
func (h *Hybrid) String() string {
	s := "hybrid{"
	for i, a := range h.approaches {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%.2f", a.Name(), h.weights[i])
	}
	return s + "}"
}
