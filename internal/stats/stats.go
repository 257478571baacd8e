// Package stats is the statistical substrate for the self-healing stack:
// means and sums, correlation, the χ² goodness-of-fit test used by the
// anomaly detector (paper Example 2) and the linear regression the §5.3
// proactive-healing ablation forecasts with.
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
