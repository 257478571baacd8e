package metrics

import "math"

// This file implements the "operators for data transformation (e.g.,
// aggregation, feature selection)" the paper lists (§3) as part of the
// learned synopses: baselines, z-score symptom vectors, and simple feature
// selection used by every learning approach in the repository.

// Baseline summarizes per-column behaviour of a window of healthy service
// operation: its means and standard deviations. Symptom vectors are always
// expressed relative to a baseline so that learners see workload-invariant
// deviations rather than raw magnitudes.
type Baseline struct {
	Schema *Schema
	Means  []float64
	Stds   []float64
}

// NewBaseline computes a baseline from a window of (presumed healthy) rows.
// The paper (§4.3.1) notes the baseline "may need to be captured when the
// service is not experiencing significant failures"; callers are responsible
// for choosing a clean window.
func NewBaseline(window *Series) *Baseline {
	return &Baseline{
		Schema: window.Schema(),
		Means:  window.ColMeans(),
		Stds:   window.ColStddevs(),
	}
}

// ZScores expresses a window of current behaviour as per-column z-scores
// against the baseline: (mean(current) - mean(baseline)) / std(baseline).
// A floor on the baseline deviation keeps near-constant columns from
// exploding; values are clamped to ±clamp so single wild columns cannot
// dominate every distance computation downstream.
func (b *Baseline) ZScores(current *Series, clamp float64) []float64 {
	cur := current.ColMeans()
	out := make([]float64, len(cur))
	for i, v := range cur {
		sd := b.Stds[i]
		floor := 0.05 * math.Abs(b.Means[i])
		if floor < 1e-6 {
			floor = 1e-6
		}
		if sd < floor {
			sd = floor
		}
		z := (v - b.Means[i]) / sd
		if clamp > 0 {
			if z > clamp {
				z = clamp
			} else if z < -clamp {
				z = -clamp
			}
		}
		out[i] = z
	}
	return out
}
