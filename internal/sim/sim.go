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
	// poisson caches inverse-CDF tables per arrival rate, so steady-rate
	// workloads sample exact Poisson counts with one uniform draw instead
	// of Knuth's λ+1 draws plus an exp — the difference between arrival
	// generation dominating the simulator tick and vanishing from it.
	poisson      []poissonTable
	poissonEvict int
}

// poissonTable is the cumulative distribution of a Poisson(lambda) count,
// truncated where the remaining tail mass is negligible (< 1e-13).
type poissonTable struct {
	lambda float64
	cdf    []float64 // cdf[k] = P(X <= k)
}

// poissonCacheSize bounds the per-RNG table cache. A workload mix has one
// rate per request class (~10); diurnal or drifting mixes rebuild tables as
// rates move, which costs no more than the Knuth loop they replace.
const poissonCacheSize = 32

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

// Poisson returns a Poisson sample with rate lambda. Small rates sample
// exactly by CDF inversion against a cached per-rate table (one uniform
// draw); for large lambda it uses a normal approximation, which is accurate
// enough for workload arrival counts and far cheaper than exact inversion.
func (g *RNG) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda > 30:
		// Normal approximation with continuity correction.
		n := g.r.NormFloat64()*math.Sqrt(lambda) + lambda + 0.5
		if n < 0 {
			return 0
		}
		return int(n)
	default:
		return g.poissonInvert(lambda)
	}
}

// poissonInvert draws X = min{k : U < P(X ≤ k)} from the cached CDF table —
// an exact Poisson sample from a single uniform draw.
func (g *RNG) poissonInvert(lambda float64) int {
	cdf := g.poissonCDF(lambda)
	u := g.r.Float64()
	// Linear scan for the same predictability reasons as
	// PoissonStream.Sample. Landing past the table end means u fell in the
	// truncated tail (< 1e-13 mass); the table edge is the quantile floor.
	for k, c := range cdf {
		if c > u {
			return k
		}
	}
	return len(cdf)
}

// poissonCDF returns the cached CDF table for lambda, building and caching
// it on first use. Eviction is round-robin: the cache is sized for the
// handful of distinct per-class rates a workload mix produces, and a
// thrashing rebuild costs no more than one Knuth-method draw did.
func (g *RNG) poissonCDF(lambda float64) []float64 {
	for i := range g.poisson {
		if g.poisson[i].lambda == lambda {
			return g.poisson[i].cdf
		}
	}
	cdf := buildPoissonCDF(lambda)
	t := poissonTable{lambda: lambda, cdf: cdf}
	if len(g.poisson) < poissonCacheSize {
		g.poisson = append(g.poisson, t)
	} else {
		g.poisson[g.poissonEvict] = t
		g.poissonEvict = (g.poissonEvict + 1) % poissonCacheSize
	}
	return cdf
}

// buildPoissonCDF computes the truncated Poisson(lambda) CDF table.
func buildPoissonCDF(lambda float64) []float64 {
	p := math.Exp(-lambda)
	cum := p
	cdf := make([]float64, 1, int(lambda)+16)
	cdf[0] = cum
	for k := 1; 1-cum > 1e-13 && k < 4096; k++ {
		p *= lambda / float64(k)
		cum += p
		cdf = append(cdf, cum)
	}
	return cdf
}

// PoissonStream samples Poisson counts for one recurring arrival process,
// holding that process's CDF table directly so the steady-rate hot path
// (one sampler per request class) skips the RNG's shared table scan.
// Samples are drawn from — and bitwise identical to — the owning RNG's
// stream: mixing PoissonStream.Sample with the RNG's other methods is safe
// and deterministic.
type PoissonStream struct {
	g      *RNG
	lambda float64
	cdf    []float64
}

// PoissonStream returns a sampler bound to this RNG for one arrival
// process whose rate rarely changes.
func (g *RNG) PoissonStream() PoissonStream { return PoissonStream{g: g} }

// Sample draws a Poisson(lambda) count, rebuilding the cached table only
// when lambda changed since the previous call.
func (p *PoissonStream) Sample(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda > 30:
		// Normal approximation with continuity correction — same branch,
		// same draw as RNG.Poisson.
		n := p.g.r.NormFloat64()*math.Sqrt(lambda) + lambda + 0.5
		if n < 0 {
			return 0
		}
		return int(n)
	}
	if p.cdf == nil || p.lambda != lambda {
		p.lambda, p.cdf = lambda, buildPoissonCDF(lambda)
	}
	u := p.g.r.Float64()
	// Linear scan, not binary search: the table has at most ~45 entries and
	// a sequential not-taken branch predicts almost perfectly, where binary
	// search eats log2(n) data-dependent mispredictions per draw.
	for k, c := range p.cdf {
		if c > u {
			return k
		}
	}
	return len(p.cdf)
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
