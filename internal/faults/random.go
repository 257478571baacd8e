package faults

import (
	"selfheal/internal/catalog"
	"selfheal/internal/service"
	"selfheal/internal/sim"
)

// Generator draws random fault instances for campaigns and learning
// experiments: it picks a kind (by weight), a target, and a severity large
// enough that the fault is SLO-visible, giving each instance a distinct
// symptom vector.
type Generator struct {
	rng     *sim.RNG
	kinds   []catalog.FaultKind
	weights []float64
}

// NewGenerator builds a fault generator over the given kinds (every
// Table 1 kind when empty) with uniform weights. Kinds must come from the
// catalog — targets.Auction.NewFaults checks them against its spec; a
// kind outside it panics at its first draw.
func NewGenerator(seed int64, kinds ...catalog.FaultKind) *Generator {
	if len(kinds) == 0 {
		kinds = catalog.FaultKinds()
	}
	w := make([]float64, len(kinds))
	for i := range w {
		w[i] = 1
	}
	return &Generator{rng: sim.NewRNG(seed), kinds: kinds, weights: w}
}

// SetWeights overrides the kind weights (aligned with the kinds passed at
// construction). Used by the Figure 1 campaign to encode per-service cause
// mixes.
func (g *Generator) SetWeights(w []float64) {
	if len(w) != len(g.kinds) {
		panic("faults: weight count mismatch")
	}
	copy(g.weights, w)
}

// Targets eligible per fault mechanism. Rare EJBs and cold tables are left
// out where a fault there would be too weak to violate the SLO.
var (
	deadlockEJBs  = []string{"ItemBean", "UserBean", "BidBean", "CommentBean", "QueryBean", "TransactionBean", "CategoryBean"}
	exceptionEJBs = []string{"ItemBean", "UserBean", "BidBean", "BuyNowBean", "CommentBean", "QueryBean", "TransactionBean", "RegionBean"}
	bugEJBs       = []string{"ItemBean", "BidBean", "TransactionBean", "QueryBean"}
	statsTables   = []string{"items", "bids", "users"}
	hotTables     = []string{"items", "bids", "users"}
	indexTables   = []string{"items", "bids", "users"}
)

// Next draws one fault instance.
func (g *Generator) Next() Fault {
	kind := g.kinds[g.rng.Pick(g.weights)]
	return g.NextOfKind(kind)
}

// NextOfKind draws a fault of the requested kind with random target and
// severity.
func (g *Generator) NextOfKind(kind catalog.FaultKind) Fault {
	r := g.rng
	pickStr := func(xs []string) string { return xs[r.Intn(len(xs))] }
	switch kind {
	case catalog.FaultDeadlock:
		return NewDeadlock(pickStr(deadlockEJBs))
	case catalog.FaultException:
		return NewException(pickStr(exceptionEJBs), r.Uniform(0.35, 0.9))
	case catalog.FaultAging:
		tier := catalog.Tiers()[r.Intn(3)]
		// Leak fast enough to degrade within minutes of simulated time.
		return NewAging(tier, r.Uniform(0.004, 0.012))
	case catalog.FaultStaleStats:
		// A plan flipped from index lookups to scans is drastically worse,
		// not marginally worse.
		return NewStaleStats(pickStr(statsTables), r.Uniform(6, 12))
	case catalog.FaultBlockContention:
		return NewBlockContention(pickStr(hotTables), r.Uniform(150, 350))
	case catalog.FaultBufferContention:
		return NewBufferContention(r.Uniform(0.6, 0.9))
	case catalog.FaultBottleneck:
		tier := catalog.Tiers()[r.Intn(3)]
		// Surge factors are tier-specific: each tier's surge classes are a
		// different share of its demand, and the surge must saturate the
		// target tier while leaving the others under their knees.
		var factor float64
		switch tier {
		case catalog.TierWeb:
			factor = r.Uniform(5, 7)
		case catalog.TierApp:
			factor = r.Uniform(6, 8)
		default:
			factor = r.Uniform(3.2, 4.2)
		}
		return NewBottleneck(tier, factor, int64(r.Uniform(600, 1800)))
	case catalog.FaultCodeBug:
		return NewCodeBug(pickStr(bugEJBs), r.Uniform(0.3, 0.8))
	case catalog.FaultOperatorConfig:
		knobs := []service.OperatorKnob{
			service.KnobSmallThreadPool,
			service.KnobSmallConnPool,
			service.KnobRoutingSkew,
			service.KnobDroppedIndex,
			service.KnobSmallBuffer,
		}
		knob := knobs[r.Intn(len(knobs))]
		target := ""
		if knob == service.KnobDroppedIndex {
			target = pickStr(indexTables)
		}
		return NewOperatorConfig(knob, target, r.Uniform(0.7, 1.0))
	case catalog.FaultHardware:
		// Enough nodes must fail to defeat the tier's redundancy, or the
		// failure never becomes user-visible.
		if r.Bool(0.5) {
			return NewHardware(catalog.TierWeb, 1)
		}
		return NewHardware(catalog.TierApp, 2)
	case catalog.FaultNetwork:
		if r.Bool(0.5) {
			return NewNetwork(r.Uniform(60, 200), 0)
		}
		return NewNetwork(r.Uniform(20, 80), r.Uniform(0.03, 0.12))
	default:
		panic("faults: cannot generate kind " + kind.String())
	}
}
