package synopsis

import (
	"sort"

	"selfheal/internal/catalog"
)

// KMeans is the paper's second synopsis (§5.2): "partitioning the failure
// data points collected so far into clusters based on the successful fix
// found for each point. A representative data point is computed for each
// cluster, e.g., the mean of all points in the cluster. Each new failure
// data point f is mapped to the cluster whose representative point is
// closest to f ... The clustering is redone after each failure is fixed
// successfully."
//
// One centroid per fix is exactly why the paper measured k-means plateauing
// near 87%: a fix whose symptoms are multimodal (microreboot serves both
// deadlock and exception signatures; tier reboots serve aging and code
// bugs) gets a centroid between its modes, and points near either mode can
// fall closer to some other fix's centroid.
type KMeans struct {
	classes   *classSet
	ex        *exemplars
	centroids map[catalog.FixID][]float64
	// centIdx scans the centroids, rebuilt by recluster on the write
	// path: centFixes holds the fixes in ascending id order and centIdx
	// holds their centroids as pseudo-points in that order, so a query's
	// (distance, ordinal) order is exactly the (score desc, fix asc)
	// order the ranking contract requires — no post-hoc sort. One
	// centroid per fix is too few points for a tree to pay.
	centFixes []catalog.FixID
	centIdx   *BruteForceIndex
	version   uint64
}

// NewKMeans returns the per-fix clustering synopsis.
func NewKMeans() *KMeans {
	return &KMeans{
		classes:   newClassSet(),
		ex:        newExemplars(),
		centroids: make(map[catalog.FixID][]float64),
	}
}

// Name implements Synopsis.
func (s *KMeans) Name() string { return "k-means" }

// TrainingSize implements Synopsis.
func (s *KMeans) TrainingSize() int { return s.ex.n }

// Version implements Learner.
func (s *KMeans) Version() uint64 { return s.version }

// Add implements Synopsis. Unsuccessful attempts are ignored — this
// synopsis clusters by the fix that worked.
func (s *KMeans) Add(p Point) {
	if !p.Success {
		return
	}
	s.classes.index(p.Action.Fix)
	s.ex.add(p)
	s.recluster()
}

// AddBatch implements Synopsis: the batch's successes are folded with a
// single reclustering pass at the end, instead of one per point.
func (s *KMeans) AddBatch(ps []Point) {
	changed := false
	for _, p := range ps {
		if !p.Success {
			continue
		}
		s.classes.index(p.Action.Fix)
		s.ex.add(p)
		changed = true
	}
	if changed {
		s.recluster()
	}
}

// Clone implements Learner. Centroids, the fix list, and the centroid index
// are replaced wholesale by recluster, never mutated in place, so they can
// all be shared.
func (s *KMeans) Clone() Synopsis {
	centroids := make(map[catalog.FixID][]float64, len(s.centroids))
	for k, v := range s.centroids {
		centroids[k] = v
	}
	return &KMeans{
		classes:   s.classes.clone(),
		ex:        s.ex.clone(),
		centroids: centroids,
		centFixes: s.centFixes,
		centIdx:   s.centIdx,
		version:   s.version,
	}
}

// Reset implements Learner: back to empty.
func (s *KMeans) Reset() {
	s.classes = newClassSet()
	s.ex = newExemplars()
	s.centroids = make(map[catalog.FixID][]float64)
	s.centFixes = nil
	s.centIdx = nil
	s.version++
}

// recluster recomputes every centroid from scratch — the "redone after each
// failure is fixed" step — and rebuilds the centroid search index. The
// rebuild rides the write path (Add/AddBatch), so readers of a
// snapshot clone only ever see a finished, immutable index.
func (s *KMeans) recluster() {
	// A fix's points are those tagged with its class, summed in arrival order.
	ex := s.ex
	sums := make([][]float64, ex.cls.len())
	counts := make([]int, ex.cls.len())
	for i, p := range ex.all {
		c := ex.fixOf[i]
		if grow := len(p.X) - len(sums[c]); grow > 0 {
			sums[c] = append(sums[c], make([]float64, grow)...)
		}
		for d, v := range p.X {
			sums[c][d] += v
		}
		counts[c]++
	}
	for c, fix := range ex.cls.fixes {
		inv := 1 / float64(counts[c])
		for d := range sums[c] {
			sums[c][d] *= inv
		}
		s.centroids[fix] = sums[c]
	}
	fixes := make([]catalog.FixID, 0, len(s.centroids))
	for fix := range s.centroids {
		fixes = append(fixes, fix)
	}
	sort.Slice(fixes, func(i, j int) bool { return fixes[i] < fixes[j] })
	cents := make([]Point, len(fixes))
	for i, fix := range fixes {
		cents[i] = Point{X: s.centroids[fix], Action: Action{Fix: fix}}
	}
	s.centFixes = fixes
	s.centIdx = NewBruteForceIndex(cents)
	s.version++
}

// rankFixes scores fixes by centroid proximity, straight off the centroid
// scan: neighbors arrive ordered by (distance asc, fix asc), which is
// precisely (score desc, fix asc) for score = 1/(1+d).
func (s *KMeans) rankFixes(x []float64) []fixScore {
	if s.centIdx == nil {
		return nil
	}
	nbs := s.centIdx.Nearest(x, -1)
	out := make([]fixScore, len(nbs))
	for i, nb := range nbs {
		out[i] = fixScore{fix: s.centFixes[nb.Ord], score: 1 / (1 + nb.Dist)}
	}
	return out
}

// Suggest implements Synopsis.
func (s *KMeans) Suggest(x []float64, filter *ActionFilter) (Suggestion, bool) {
	return suggestFrom(s.rankFixes(x), s.ex, &probe{x: x}, filter)
}

// RankK implements Synopsis.
func (s *KMeans) RankK(x []float64, k int) []Suggestion {
	return rankKFrom(s.rankFixes(x), s.ex, &probe{x: x}, k)
}
