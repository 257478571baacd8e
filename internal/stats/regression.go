package stats

import "math"

// LinearFit is an ordinary least-squares line y = Intercept + Slope·x with
// its coefficient of determination. The proactive-healing ablation (§5.3)
// fits these to leak/aging metrics to forecast when a threshold will be
// crossed.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLine fits y = a + b·x by least squares. Fewer than two points, or zero
// variance in x, yields a flat line through the mean.
func FitLine(xs, ys []float64) LinearFit {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n == 0 {
		return LinearFit{}
	}
	if n == 1 {
		return LinearFit{Intercept: ys[0], N: 1}
	}
	mx := Mean(xs[:n])
	my := Mean(ys[:n])
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my, N: n}
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinearFit{Slope: b, Intercept: a, R2: r2, N: n}
}

// FitSeries fits a line to ys against x = 0,1,...,len(ys)-1.
func FitSeries(ys []float64) LinearFit {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return FitLine(xs, ys)
}

// CrossingTime returns the x at which the fitted line reaches level, and
// whether such a crossing lies ahead of from (i.e. the line is actually
// heading toward level). A near-zero slope never crosses.
func (f LinearFit) CrossingTime(level, from float64) (float64, bool) {
	if math.Abs(f.Slope) < 1e-12 {
		return 0, false
	}
	x := (level - f.Intercept) / f.Slope
	if x <= from {
		return 0, false
	}
	return x, true
}
