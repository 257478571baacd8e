// Package sim provides the deterministic simulation substrate used by the
// multitier-service simulator: a tick clock and a seeded random source with
// the distributions the workload and fault models need.
//
// The paper's evaluation (§5.2) runs on "a simulator for a multitier service
// that generates time-series data corresponding to different failed and
// working service states"; determinism here is what makes every experiment
// in this repository reproducible from a seed.
package sim

import (
	"math"
	"math/rand"
)

// Clock is a discrete simulation clock. One tick corresponds to one second
// of simulated time throughout this repository.
type Clock struct {
	now int64
}

// Now returns the current tick.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by n ticks and returns the new time.
// Advancing by a non-positive n is a no-op.
func (c *Clock) Advance(n int64) int64 {
	if n > 0 {
		c.now += n
	}
	return c.now
}

// RNG is a seeded random source with the distributions used by the
// simulator. It is not safe for concurrent use; each simulation owns one.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// LogNormal returns a log-normal sample where mu and sigma are the
// parameters of the underlying normal distribution.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// PoissonStream samples Poisson counts for one recurring arrival process
// (one per request class), holding that process's CDF table so a steady
// rate samples an exact count from a single uniform draw instead of
// Knuth's λ+1 draws plus an exp. Samples are drawn from the owning RNG's
// stream: mixing PoissonStream.Sample with the RNG's other methods is safe
// and deterministic.
type PoissonStream struct {
	g      *RNG
	lambda float64
	// cdf[k] = P(X <= k) for a Poisson(lambda) count, truncated where the
	// remaining tail mass is negligible (< 1e-13).
	cdf []float64
	// guide[j] = min{k : cdf[k] > j/len(guide)}, len(guide) the smallest
	// power of two ≥ len(cdf): the index table of Chen & Asau's guided
	// inversion (Devroye, Non-Uniform Random Variate Generation, §III.2).
	guide []int32
}

// PoissonStream returns a sampler bound to this RNG for one arrival
// process whose rate rarely changes.
func (g *RNG) PoissonStream() PoissonStream { return PoissonStream{g: g} }

// Sample draws a Poisson(lambda) count, rebuilding the table in place only
// when lambda changed since the previous call. Small rates invert the CDF
// exactly; for lambda > 30 a normal approximation is accurate enough for
// workload arrival counts and far cheaper than exact inversion.
func (p *PoissonStream) Sample(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda > 30:
		// Normal approximation with continuity correction.
		n := p.g.r.NormFloat64()*math.Sqrt(lambda) + lambda + 0.5
		if n < 0 {
			return 0
		}
		return int(n)
	}
	if p.cdf == nil || p.lambda != lambda {
		p.build(lambda)
	}
	return p.invert(p.g.r.Float64())
}

// invert returns X = min{k : cdf[k] > u} for u in [0,1). With j = ⌊u·M⌋
// (exact: M is a power of two), every k below guide[j] has
// cdf[k] ≤ j/M ≤ u, so the scan may start there; it examines fewer than
// two entries per draw on average, whatever the rate. Landing past the
// table end means u fell in the truncated tail; the table edge is the
// quantile floor. The tests are written !(c > u), not c <= u, so a NaN
// table (a NaN rate) scans to its end as the plain scan did.
func (p *PoissonStream) invert(u float64) int {
	k := int(p.guide[int(u*float64(len(p.guide)))])
	for k < len(p.cdf) && !(p.cdf[k] > u) {
		k++
	}
	return k
}

// build fills the CDF and guide tables for lambda, reusing their storage,
// so a rate that moves every tick (diurnal load, drift) rebuilds without
// allocating, in time linear in the table: at most 79 CDF entries and 128
// guide entries for lambda ≤ 30.
func (p *PoissonStream) build(lambda float64) {
	pk := math.Exp(-lambda)
	cum := pk
	cdf := append(p.cdf[:0], cum)
	for k := 1; 1-cum > 1e-13 && k < 4096; k++ {
		pk *= lambda / float64(k)
		cum += pk
		cdf = append(cdf, cum)
	}
	m := 1
	for m < len(cdf) {
		m <<= 1
	}
	guide := p.guide[:0]
	k := 0
	for j := 0; j < m; j++ {
		for k < len(cdf) && !(cdf[k] > float64(j)/float64(m)) {
			k++
		}
		guide = append(guide, int32(k))
	}
	p.lambda, p.cdf, p.guide = lambda, cdf, guide
}

// Pick returns an index sampled proportionally to weights. Negative weights
// are treated as zero. If all weights are zero, Pick returns uniformly.
func (g *RNG) Pick(weights []float64) int {
	if len(weights) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.r.Intn(len(weights))
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
