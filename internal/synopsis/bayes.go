package synopsis

import "math"

// NaiveBayes is a Gaussian naive-Bayes synopsis. The paper singles out
// Bayesian models as synopses "that give confidence estimates naturally
// with predicted values" (§5.2) — this learner's posteriors are the
// calibrated confidences the hybrid approach (§5.1) uses to rank fixes
// across approaches.
type NaiveBayes struct {
	classes *classSet
	ex      *exemplars
	// per class: count, per-feature running mean and M2 (Welford).
	count   []float64
	mean    [][]float64
	m2      [][]float64
	dim     int
	n       int
	version uint64
}

// Version implements Learner.
func (s *NaiveBayes) Version() uint64 { return s.version }

// NewNaiveBayes returns an empty Gaussian NB synopsis.
func NewNaiveBayes() *NaiveBayes {
	return &NaiveBayes{classes: newClassSet(), ex: newExemplars()}
}

// Name implements Synopsis.
func (s *NaiveBayes) Name() string { return "naive-bayes" }

// TrainingSize implements Synopsis.
func (s *NaiveBayes) TrainingSize() int { return s.n }

// Add implements Synopsis. Only successful fixes update class likelihoods.
func (s *NaiveBayes) Add(p Point) {
	if !p.Success {
		return
	}
	s.grow(len(p.X))
	c := s.classes.index(p.Action.Fix)
	for len(s.count) <= c {
		s.count = append(s.count, 0)
		s.mean = append(s.mean, make([]float64, s.dim))
		s.m2 = append(s.m2, make([]float64, s.dim))
	}
	s.count[c]++
	n := s.count[c]
	for f := 0; f < s.dim; f++ {
		x := feature(p.X, f)
		d := x - s.mean[c][f]
		s.mean[c][f] += d / n
		s.m2[c][f] += d * (x - s.mean[c][f])
	}
	s.ex.add(p)
	s.n++
	s.version++
}

// grow widens the per-class moment arrays to dim coordinates. Every prior
// observation implicitly held zero in the new coordinates (see feature),
// and the Welford moments of an all-zero stream are exactly zero, so
// extending with zeros keeps the running statistics identical to the ones
// a fixed-width learner would have accumulated.
func (s *NaiveBayes) grow(dim int) {
	if dim <= s.dim {
		return
	}
	for c := range s.mean {
		for len(s.mean[c]) < dim {
			s.mean[c] = append(s.mean[c], 0)
			s.m2[c] = append(s.m2[c], 0)
		}
	}
	s.dim = dim
}

// AddBatch implements Synopsis. The Welford update is already incremental,
// so batching only saves the per-call overhead.
func (s *NaiveBayes) AddBatch(ps []Point) {
	for _, p := range ps {
		s.Add(p)
	}
}

// Clone implements Learner. The per-class running moments are updated in
// place by Add, so they are deep-copied; the exemplar points are shared.
func (s *NaiveBayes) Clone() Synopsis {
	c := &NaiveBayes{
		classes: s.classes.clone(),
		ex:      s.ex.clone(),
		count:   append([]float64(nil), s.count...),
		mean:    make([][]float64, len(s.mean)),
		m2:      make([][]float64, len(s.m2)),
		dim:     s.dim,
		n:       s.n,
		version: s.version,
	}
	for i := range s.mean {
		c.mean[i] = append([]float64(nil), s.mean[i]...)
		c.m2[i] = append([]float64(nil), s.m2[i]...)
	}
	return c
}

// Reset implements Learner: back to empty.
func (s *NaiveBayes) Reset() {
	s.classes = newClassSet()
	s.ex = newExemplars()
	s.count = nil
	s.mean = nil
	s.m2 = nil
	s.dim = 0
	s.n = 0
	s.version++
}

// rankFixes scores fixes by posterior probability under the
// independent-Gaussian likelihood with a variance floor.
func (s *NaiveBayes) rankFixes(x []float64) []fixScore {
	k := s.classes.len()
	if k == 0 || s.n == 0 {
		return nil
	}
	const varFloor = 0.25
	logps := make([]float64, 0, k)
	idx := make([]int, 0, k)
	for c := 0; c < k; c++ {
		if s.count[c] == 0 {
			continue
		}
		lp := math.Log(s.count[c] / float64(s.n))
		for f := 0; f < s.dim; f++ {
			v := varFloor
			if s.count[c] > 1 {
				v += s.m2[c][f] / s.count[c]
			}
			d := feature(x, f) - s.mean[c][f]
			lp += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
		}
		logps = append(logps, lp)
		idx = append(idx, c)
	}
	if len(logps) == 0 {
		return nil
	}
	// Softmax in log space for numerical stability.
	maxLP := logps[0]
	for _, lp := range logps[1:] {
		if lp > maxLP {
			maxLP = lp
		}
	}
	out := make([]fixScore, len(logps))
	for i, lp := range logps {
		out[i] = fixScore{fix: s.classes.fixes[idx[i]], score: math.Exp(lp - maxLP)}
	}
	sortFixScores(out)
	return out
}

// Suggest implements Synopsis.
func (s *NaiveBayes) Suggest(x []float64, filter *ActionFilter) (Suggestion, bool) {
	return suggestFrom(s.rankFixes(x), s.ex, &probe{x: x}, filter)
}

// RankK implements Synopsis.
func (s *NaiveBayes) RankK(x []float64, k int) []Suggestion {
	return rankKFrom(s.rankFixes(x), s.ex, &probe{x: x}, k)
}
