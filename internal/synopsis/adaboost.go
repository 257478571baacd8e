package synopsis

import (
	"math"
	"sort"
)

// AdaBoost is the paper's third synopsis (§5.2): "an ensemble learning
// technique that can produce accurate predictions by combining many simple
// and moderately inaccurate synopses (or weak learners)". The paper's
// configuration — its single knob — is 60 weak learners; this
// implementation uses the multi-class SAMME variant of AdaBoost over
// depth-limited decision trees (depth 2 by default: stumps generalize too
// slowly past a handful of classes), refit from scratch whenever a new
// successful fix is learned. That refit is exactly the running-time cost
// Table 3 charges against AdaBoost's superior sample-efficiency.
type AdaBoost struct {
	// T is the number of weak learners (the paper's value is 60).
	T int
	// MaxDepth bounds each weak tree (2 → up to four leaves).
	MaxDepth int
	// MaxThresholds bounds candidate split points per feature.
	MaxThresholds int

	classes *classSet
	ex      *exemplars
	points  []Point // successful observations only
	labels  []int
	trees   []*treeNode
	alphas  []float64
	version uint64
}

// Version implements versioned.
func (s *AdaBoost) Version() uint64 { return s.version }

// treeNode is a node of a weak decision tree.
type treeNode struct {
	leaf      bool
	class     int
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
}

func (n *treeNode) predict(x []float64) int {
	for !n.leaf {
		if feature(x, n.feature) <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// NewAdaBoost returns a SAMME ensemble with t weak learners.
func NewAdaBoost(t int) *AdaBoost {
	if t < 1 {
		t = 1
	}
	return &AdaBoost{T: t, MaxDepth: 2, MaxThresholds: 12, classes: newClassSet(), ex: newExemplars()}
}

// Name implements Synopsis.
func (s *AdaBoost) Name() string { return "adaboost" }

// TrainingSize implements Synopsis.
func (s *AdaBoost) TrainingSize() int { return len(s.points) }

// Add implements Synopsis. Each successful observation triggers a full
// refit; unsuccessful attempts only inform the loop's exclusion set.
func (s *AdaBoost) Add(p Point) {
	if !p.Success {
		return
	}
	s.points = append(s.points, p)
	s.labels = append(s.labels, s.classes.index(p.Action.Fix))
	s.ex.add(p)
	s.Retrain()
}

// AddBatch implements Batcher: the batch's successes are appended and the
// ensemble refit once — the refit is AdaBoost's whole learning cost
// (Table 3), so an episode-sized batch divides it by the episode's label
// count.
func (s *AdaBoost) AddBatch(ps []Point) {
	changed := false
	for _, p := range ps {
		if !p.Success {
			continue
		}
		s.points = append(s.points, p)
		s.labels = append(s.labels, s.classes.index(p.Action.Fix))
		s.ex.add(p)
		changed = true
	}
	if changed {
		s.Retrain()
	}
}

// Clone implements Cloner. Trees are immutable once built and can be
// shared, but the trees/alphas slice headers must be fresh copies: Retrain
// truncates and reuses the receiver's backing arrays in place.
func (s *AdaBoost) Clone() Synopsis {
	return &AdaBoost{
		T:             s.T,
		MaxDepth:      s.MaxDepth,
		MaxThresholds: s.MaxThresholds,
		classes:       s.classes.clone(),
		ex:            s.ex.clone(),
		points:        s.points[:len(s.points):len(s.points)],
		labels:        s.labels[:len(s.labels):len(s.labels)],
		trees:         append([]*treeNode(nil), s.trees...),
		alphas:        append([]float64(nil), s.alphas...),
		version:       s.version,
	}
}

// Reset implements Resetter: back to empty, keeping the ensemble knobs.
func (s *AdaBoost) Reset() {
	s.classes = newClassSet()
	s.ex = newExemplars()
	s.points = nil
	s.labels = nil
	s.trees = nil
	s.alphas = nil
	s.version++
}

// Retrain refits the whole ensemble on the current training set.
func (s *AdaBoost) Retrain() {
	s.version++
	s.trees = s.trees[:0]
	s.alphas = s.alphas[:0]
	n := len(s.points)
	k := s.classes.len()
	if n == 0 || k == 0 {
		return
	}
	if k == 1 {
		s.trees = append(s.trees, &treeNode{leaf: true, class: 0})
		s.alphas = append(s.alphas, 1)
		return
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	thresholds := s.candidateThresholds()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	logKm1 := math.Log(float64(k - 1))
	for t := 0; t < s.T; t++ {
		tree := s.buildTree(idx, w, thresholds, k, s.MaxDepth)
		err := 0.0
		for i := range s.points {
			if tree.predict(s.points[i].X) != s.labels[i] {
				err += w[i]
			}
		}
		if err >= 1-1/float64(k) {
			// Weak learner no better than chance; boosting has converged.
			break
		}
		if err < 1e-9 {
			err = 1e-9
		}
		alpha := math.Log((1-err)/err) + logKm1
		s.trees = append(s.trees, tree)
		s.alphas = append(s.alphas, alpha)
		// Reweight: misclassified points gain weight.
		total := 0.0
		for i := range s.points {
			if tree.predict(s.points[i].X) != s.labels[i] {
				w[i] *= math.Exp(alpha)
			}
			total += w[i]
		}
		if total <= 0 {
			break
		}
		for i := range w {
			w[i] /= total
		}
	}
}

// buildTree grows one weighted weak tree over the points in idx.
func (s *AdaBoost) buildTree(idx []int, w []float64, thresholds [][]float64, k, depth int) *treeNode {
	counts := make([]float64, k)
	total := 0.0
	for _, i := range idx {
		counts[s.labels[i]] += w[i]
		total += w[i]
	}
	major, majorW := argmax(counts)
	leaf := &treeNode{leaf: true, class: major}
	if depth == 0 || total <= 0 || majorW >= total-1e-12 || len(idx) < 2 {
		return leaf
	}
	feat, threshold, gain := s.bestSplit(idx, w, thresholds, k, total-majorW)
	if gain <= 1e-12 {
		return leaf
	}
	var li, ri []int
	for _, i := range idx {
		if feature(s.points[i].X, feat) <= threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return leaf
	}
	return &treeNode{
		feature:   feat,
		threshold: threshold,
		left:      s.buildTree(li, w, thresholds, k, depth-1),
		right:     s.buildTree(ri, w, thresholds, k, depth-1),
	}
}

// bestSplit finds the (feature, threshold) minimizing the weighted error of
// two majority-class children; gain is the error reduction vs. the parent
// leaf error.
func (s *AdaBoost) bestSplit(idx []int, w []float64, thresholds [][]float64, k int, leafErr float64) (int, float64, float64) {
	bestF, bestT := -1, 0.0
	bestErr := math.Inf(1)
	leftW := make([]float64, k)
	rightW := make([]float64, k)
	for f, ths := range thresholds {
		for _, th := range ths {
			for c := 0; c < k; c++ {
				leftW[c], rightW[c] = 0, 0
			}
			var lTot, rTot float64
			for _, i := range idx {
				c := s.labels[i]
				if feature(s.points[i].X, f) <= th {
					leftW[c] += w[i]
					lTot += w[i]
				} else {
					rightW[c] += w[i]
					rTot += w[i]
				}
			}
			if lTot == 0 || rTot == 0 {
				continue
			}
			_, lw := argmax(leftW)
			_, rw := argmax(rightW)
			err := (lTot - lw) + (rTot - rw)
			if err < bestErr {
				bestErr = err
				bestF, bestT = f, th
			}
		}
	}
	if bestF < 0 {
		return -1, 0, 0
	}
	return bestF, bestT, leafErr - bestErr
}

// candidateThresholds picks up to MaxThresholds split points per feature
// from the empirical distribution of that feature.
func (s *AdaBoost) candidateThresholds() [][]float64 {
	if len(s.points) == 0 {
		return nil
	}
	dim := width(s.points)
	out := make([][]float64, dim)
	vals := make([]float64, 0, len(s.points))
	for f := 0; f < dim; f++ {
		vals = vals[:0]
		for i := range s.points {
			vals = append(vals, feature(s.points[i].X, f))
		}
		sort.Float64s(vals)
		uniq := vals[:0:0]
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				uniq = append(uniq, v)
			}
		}
		if len(uniq) < 2 {
			continue
		}
		m := s.MaxThresholds
		if m > len(uniq)-1 {
			m = len(uniq) - 1
		}
		th := make([]float64, 0, m+1)
		for j := 1; j <= m; j++ {
			i := j * (len(uniq) - 1) / (m + 1)
			if i+1 >= len(uniq) {
				i = len(uniq) - 2
			}
			mid := (uniq[i] + uniq[i+1]) / 2
			if len(th) == 0 || th[len(th)-1] != mid {
				th = append(th, mid)
			}
		}
		// Quantile spacing can straddle a bimodal feature's natural
		// boundary; the midpoint of the largest gap between adjacent
		// values catches it exactly.
		gapMid, gap := 0.0, -1.0
		for i := 0; i+1 < len(uniq); i++ {
			if g := uniq[i+1] - uniq[i]; g > gap {
				gap = g
				gapMid = (uniq[i] + uniq[i+1]) / 2
			}
		}
		th = append(th, gapMid)
		out[f] = th
	}
	return out
}

func argmax(xs []float64) (int, float64) {
	bi, bv := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bv {
			bi, bv = i, v
		}
	}
	return bi, bv
}

// rankFixes scores fixes by total weighted tree vote.
func (s *AdaBoost) rankFixes(x []float64) []fixScore {
	k := s.classes.len()
	if k == 0 || len(s.trees) == 0 {
		return nil
	}
	votes := make([]float64, k)
	for i, tr := range s.trees {
		votes[tr.predict(x)] += s.alphas[i]
	}
	out := make([]fixScore, 0, k)
	for c, v := range votes {
		if v > 0 {
			out = append(out, fixScore{fix: s.classes.fixes[c], score: v})
		}
	}
	sortFixScores(out)
	return out
}

// Suggest implements Synopsis.
func (s *AdaBoost) Suggest(x []float64, filter *ActionFilter) (Suggestion, bool) {
	return suggestFrom(s.rankFixes(x), s.ex, &probe{x: x}, filter)
}

// RankK implements Synopsis.
func (s *AdaBoost) RankK(x []float64, k int) []Suggestion {
	return rankKFrom(s.rankFixes(x), s.ex, &probe{x: x}, k)
}
