// Package workload generates per-tick request arrivals for the simulated
// service: RUBiS-like browsing and bidding mixes, diurnal modulation, load
// surges and slow drift. These are the "different types and rates of
// workloads" the paper's §4.2 recommends for active stimulation during
// preproduction, and the drift knob drives the §5.2 online-learning
// scenarios.
package workload

import (
	"fmt"
	"slices"

	"selfheal/internal/service"
	"selfheal/internal/sim"
)

// Mix is a named request mix: per-class base rates in requests/second,
// aligned with service.ClassNames() order.
type Mix struct {
	Name  string
	Rates []float64
}

// BiddingMix returns RUBiS's read-write bidding mix (~15% writes) at the
// default intensity (~150 req/s).
func BiddingMix() Mix {
	return mixFor(map[string]float64{
		"Home": 15, "Browse": 30, "Search": 25, "ViewItem": 35, "ViewUser": 10,
		"Bid": 15, "BuyNow": 5, "Register": 5, "Sell": 10, "About": 10,
	}, "bidding")
}

// BrowsingMix returns RUBiS's read-only browsing mix.
func BrowsingMix() Mix {
	return mixFor(map[string]float64{
		"Home": 25, "Browse": 45, "Search": 35, "ViewItem": 35, "ViewUser": 10,
		"Bid": 0, "BuyNow": 0, "Register": 0, "Sell": 0, "About": 15,
	}, "browsing")
}

func mixFor(rates map[string]float64, name string) Mix {
	names := service.ClassNames()
	m := Mix{Name: name, Rates: make([]float64, len(names))}
	seen := 0
	for i, n := range names {
		if r, ok := rates[n]; ok {
			m.Rates[i] = r
			seen++
		}
	}
	if seen != len(rates) {
		panic(fmt.Sprintf("workload: mix %q names do not match service classes", name))
	}
	return m
}

// Surge is a temporary multiplicative load increase on a set of classes —
// the offered-load component of the paper's "bottlenecked tier" failure.
type Surge struct {
	Start, End int64
	Factor     float64
	// Classes limits the surge to these class indexes; empty means all.
	Classes []int
}

func (s Surge) active(t int64) bool { return t >= s.Start && t < s.End }

// Generator produces per-tick arrivals.
type Generator struct {
	mix     Mix
	rng     *sim.RNG
	scale   float64
	diurnal bool
	// driftPerTick shifts the mix from its base toward heavier search/browse
	// traffic over time (workload evolution, §5.2).
	driftPerTick float64
	drift        float64
	driftDir     []int8 // per class, from driftDirs
	// surges holds, in the order added, the surges that have not ended:
	// a tick costs by the live ones, not by the campaign's age.
	surges []Surge
	buf    []float64
	// samplers holds one Poisson sampler per class, so steady per-class
	// rates keep their CDF tables hot instead of rescanning the RNG's
	// shared cache on every draw.
	samplers []sim.PoissonStream
}

// driftDirs is where drift takes a class: browse/search/view classes grow
// (+1), write classes shrink (-1), the rest stay.
var driftDirs = map[string]int8{"Browse": 1, "Search": 1, "ViewItem": 1, "Bid": -1, "BuyNow": -1, "Sell": -1, "Register": -1}

// NewGenerator builds a generator over mix with the given seed.
func NewGenerator(mix Mix, seed int64) *Generator {
	g := &Generator{
		mix:      mix,
		rng:      sim.NewRNG(seed),
		scale:    1,
		buf:      make([]float64, len(mix.Rates)),
		samplers: make([]sim.PoissonStream, len(mix.Rates)),
		driftDir: make([]int8, len(mix.Rates)),
	}
	for i, name := range service.ClassNames()[:len(mix.Rates)] {
		g.driftDir[i] = driftDirs[name]
	}
	for i := range g.samplers {
		g.samplers[i] = g.rng.PoissonStream()
	}
	return g
}

// SetScale applies a constant multiplier to the whole mix.
func (g *Generator) SetScale(f float64) { g.scale = f }

// EnableDiurnal turns on a ±25% day/night modulation (period 24 simulated
// hours).
func (g *Generator) EnableDiurnal() { g.diurnal = true }

// SetDrift makes the mix drift by f per tick: positive drift steadily
// shifts traffic toward the read-heavy classes, changing the baseline the
// learners trained on.
func (g *Generator) SetDrift(f float64) { g.driftPerTick = f }

// AddSurge schedules a load surge.
func (g *Generator) AddSurge(s Surge) { g.surges = append(g.surges, s) }

// EndSurge ends, from tick t on, the first live surge equal to s (equal
// surges are interchangeable): the inverse of AddSurge.
func (g *Generator) EndSurge(s Surge, t int64) {
	for i, have := range g.surges {
		if have.Start == s.Start && have.End == s.End && have.Factor == s.Factor && slices.Equal(have.Classes, s.Classes) {
			g.surges[i].End = min(have.End, t)
			return
		}
	}
}

// Rates returns the expected (noise-free) per-class rates at tick t, for t
// at or after the last tick Arrivals was asked for: a surge that ended
// before that tick has been forgotten, and the drift is the one that tick
// drew at. Reading the rates moves nothing: only Arrivals advances the
// drift. The returned slice is freshly allocated; callers may retain it.
func (g *Generator) Rates(t int64) []float64 {
	return g.ratesInto(t, make([]float64, len(g.mix.Rates)))
}

// ratesInto computes the expected rates at tick t into out (the per-tick
// path reuses one buffer, so steady-state arrival generation allocates
// nothing).
func (g *Generator) ratesInto(t int64, out []float64) []float64 {
	mod := g.scale
	if g.diurnal {
		mod *= DiurnalFactor(t)
	}
	// The drift multiplier by direction: shrink, stay, grow. With no drift
	// all three are exactly 1.
	mul := [3]float64{1 / (1 + g.drift), 1, 1 + g.drift}
	for i, r := range g.mix.Rates {
		v := r * mod * mul[1+g.driftDir[i]]
		for _, s := range g.surges {
			if !s.active(t) {
				continue
			}
			if len(s.Classes) == 0 {
				v *= s.Factor
				continue
			}
			for _, c := range s.Classes {
				if c == i {
					v *= s.Factor
				}
			}
		}
		out[i] = v
	}
	return out
}

// Arrivals returns Poisson-sampled per-class arrivals for tick t. The
// returned slice is reused between calls. Arrivals is the tick clock: ticks
// come in increasing order, each advances the drift by one tick's worth,
// and a surge that has ended by t is dropped here (the rest keep their
// order, so every rate is the same product).
func (g *Generator) Arrivals(t int64) []float64 {
	g.drift += g.driftPerTick
	live := g.surges[:0]
	for _, s := range g.surges {
		if s.End > t {
			live = append(live, s)
		}
	}
	g.surges = live
	for i, r := range g.ratesInto(t, g.buf) {
		g.buf[i] = float64(g.samplers[i].Sample(r))
	}
	return g.buf
}

// DiurnalFactor returns the ±25% day/night modulation multiplier at tick
// t (period 86400 ticks) — what EnableDiurnal applies, exported so targets
// with their own arrival loops share the same day shape.
func DiurnalFactor(t int64) float64 { return 1 + 0.25*parabolicSine(float64(t%86400)/86400.0) }

// parabolicSine approximates sin(2πx) for x in [0,1) within ~6% — plenty
// for workload shaping.
func parabolicSine(x float64) float64 {
	x = x - 0.25 // shift so peak is at midday
	if x < 0 {
		x += 1
	}
	// Triangle-to-parabola shaping.
	var y float64
	if x < 0.5 {
		y = 1 - 16*(x-0.25)*(x-0.25)
	} else {
		y = -1 + 16*(x-0.75)*(x-0.75)
	}
	return y
}
