package stats

// Holt implements Holt's double exponential smoothing: a level plus a
// smoothed trend, forecasting when a level will be crossed. The proactive healer (§5.3)
// uses it as an alternative to OLS trend fitting — it tracks accelerating
// leaks (where a straight-line fit lags) much more responsively because old
// observations decay exponentially.
type Holt struct {
	// Alpha smooths the level, Beta the trend; both in (0,1].
	Alpha, Beta float64

	level float64
	trend float64
	n     int
}

// NewHolt returns a smoother with the given parameters (clamped into
// (0,1]).
func NewHolt(alpha, beta float64) *Holt {
	clamp := func(x float64) float64 {
		if x <= 0 || x > 1 {
			return 0.3
		}
		return x
	}
	return &Holt{Alpha: clamp(alpha), Beta: clamp(beta)}
}

// Add folds one observation.
func (h *Holt) Add(x float64) {
	switch h.n {
	case 0:
		h.level = x
	case 1:
		h.trend = x - h.level
		h.level = x
	default:
		prevLevel := h.level
		h.level = h.Alpha*x + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prevLevel) + (1-h.Beta)*h.trend
	}
	h.n++
}

// N returns the number of observations folded in.
func (h *Holt) N() int { return h.n }

// Level returns the current smoothed level.
func (h *Holt) Level() float64 { return h.level }

// Trend returns the current smoothed per-step trend.
func (h *Holt) Trend() float64 { return h.trend }

// StepsToCross returns how many steps ahead the forecast first reaches
// level, and whether it does within maxSteps (a non-positive or wrong-way
// trend never crosses).
func (h *Holt) StepsToCross(level float64, maxSteps int) (int, bool) {
	if h.n < 2 {
		return 0, false
	}
	switch {
	case h.level >= level:
		return 0, true
	case h.trend <= 1e-12:
		return 0, false
	}
	steps := (level - h.level) / h.trend
	if steps > float64(maxSteps) {
		return 0, false
	}
	k := int(steps)
	if k < 0 {
		k = 0
	}
	return k, true
}
