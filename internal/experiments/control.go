package experiments

import (
	"math"

	"selfheal/internal/catalog"
)

// The control-theoretic analysis the paper's §5.4 calls for: a
// self-healing service is a feedback controller over its own metrics, so
// its behaviour should be judged by stability, steady-state error, settling
// time and overshooting (after Hellerstein et al. [15]). The functions here
// analyze a recovery transient — a metric series starting at a fix
// application — and the fix history of a healing loop.

// transient describes a recovery transient of one metric toward a target.
type transient struct {
	// Settled reports whether the series entered and stayed inside the
	// band around target.
	Settled bool
	// SettlingTime is the index after which the series stayed within the
	// band (valid when Settled).
	SettlingTime int
	// Overshoot is the maximum excursion past the target after first
	// crossing it, as a fraction of the target (0 when never crossed).
	Overshoot float64
	// SteadyStateError is the mean |value-target|/target over the settled
	// tail (or the last quarter when not settled).
	SteadyStateError float64
}

// analyzeTransient measures the recovery of series toward target with a
// relative tolerance band (e.g. 0.1 = ±10%).
func analyzeTransient(series []float64, target, band float64) transient {
	n := len(series)
	tr := transient{}
	if n == 0 || target <= 0 {
		return tr
	}
	inBand := func(v float64) bool { return math.Abs(v-target) <= band*target }

	// Settling time: last index outside the band, plus one.
	last := -1
	for i, v := range series {
		if !inBand(v) {
			last = i
		}
	}
	if last < n-1 {
		tr.Settled = true
		tr.SettlingTime = last + 1
	}

	// Overshoot: after the first band entry, the worst excursion past
	// target on the far side of the approach direction.
	first := -1
	for i, v := range series {
		if inBand(v) {
			first = i
			break
		}
	}
	if first >= 0 && first < n-1 {
		fromAbove := series[0] > target
		worst := 0.0
		for _, v := range series[first:] {
			var exc float64
			if fromAbove {
				exc = (target - v) / target // dipping below after approach from above
			} else {
				exc = (v - target) / target
			}
			if exc > worst {
				worst = exc
			}
		}
		tr.Overshoot = worst
	}

	tail := series[n*3/4:]
	if tr.Settled && tr.SettlingTime < n {
		tail = series[tr.SettlingTime:]
	}
	if len(tail) > 0 {
		e := 0.0
		for _, v := range tail {
			e += math.Abs(v-target) / target
		}
		tr.SteadyStateError = e / float64(len(tail))
	}
	return tr
}

// fixEvent is one fix application at a tick.
type fixEvent struct {
	Fix    catalog.FixID
	Target string
	At     int64
}

// flapping reports whether the healing loop is unstable in the
// control-theoretic sense: the same action applied repeatedly within a
// window, indicating oscillation rather than convergence.
type flapping struct {
	Unstable bool
	// Worst is the highest repetition count of one action inside any
	// window.
	Worst int
	// Action is the action that flapped hardest.
	Action string
}

// detectFlapping scans fix history with the given window (ticks) and
// repetition threshold.
func detectFlapping(events []fixEvent, windowTicks int64, maxRepeats int) flapping {
	out := flapping{}
	for i := range events {
		key := events[i].Fix.String() + "|" + events[i].Target
		count := 1
		for j := i + 1; j < len(events); j++ {
			if events[j].At-events[i].At > windowTicks {
				break
			}
			if events[j].Fix == events[i].Fix && events[j].Target == events[i].Target {
				count++
			}
		}
		if count > out.Worst {
			out.Worst = count
			out.Action = key
		}
	}
	out.Unstable = out.Worst > maxRepeats
	return out
}
