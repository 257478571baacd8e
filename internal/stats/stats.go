// Package stats is the statistical substrate for the self-healing stack:
// descriptive statistics, online (Welford) accumulators, EWMA smoothing,
// correlation, the χ² goodness-of-fit test used by the anomaly detector
// (paper Example 2), linear regression used by the proactive forecaster
// (§5.3) and Holt's trend smoother.
//
// Everything here is implemented from scratch on the standard library so the
// learning layers above have no external dependencies.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// Slices of unequal length are truncated to the shorter one; fewer than two
// points or a zero-variance input yields 0.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	mx := Mean(xs[:n])
	my := Mean(ys[:n])
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Welford is an online accumulator for mean and variance, suitable for
// per-metric baselines that must be maintained incrementally.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the running population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0,1]; larger alpha tracks faster.
type EWMA struct {
	Alpha float64
	val   float64
	init  bool
}

// Add folds x into the average and returns the new value.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.val = x
		e.init = true
		return e.val
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.2
	}
	e.val = a*x + (1-a)*e.val
	return e.val
}

// Value returns the current average.
func (e *EWMA) Value() float64 { return e.val }
