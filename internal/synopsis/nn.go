package synopsis

import "selfheal/internal/catalog"

// NearestNeighbor is the paper's first synopsis (§5.2): "a simple
// machine-learning algorithm that maps a new failure data point f to the
// data point f′ that is closest to f among all failure data points observed
// so far. The fix recommended for f is the fix that worked for f′."
//
// With UseNegatives set, unsuccessful attempts also vote (negatively) —
// the §5.2 "learning from negative training samples" extension.
type NearestNeighbor struct {
	// UseNegatives makes failed attempts repel their fix when a failure
	// sits closer to the failed attempt than to any success of that fix.
	UseNegatives bool

	ex        *exemplars
	negatives []Point
	// negByFix groups negatives by fix (arrival order preserved) so
	// scoring one fix scans only that fix's failures, not all of them.
	negByFix map[catalog.FixID][]Point
	// version counts effective mutations; Shared republishes snapshots
	// only when it moves, so no-op writes (failed attempts with
	// UseNegatives off) cost no clone.
	version uint64
}

// NewNearestNeighbor returns the paper's plain nearest-neighbor synopsis.
func NewNearestNeighbor() *NearestNeighbor {
	return &NearestNeighbor{ex: newExemplars()}
}

// Name implements Synopsis.
func (s *NearestNeighbor) Name() string { return "nearest-neighbor" }

// TrainingSize implements Synopsis.
func (s *NearestNeighbor) TrainingSize() int { return s.ex.n }

// Add implements Synopsis.
func (s *NearestNeighbor) Add(p Point) {
	if p.Success {
		s.ex.add(p)
		s.version++
	} else if s.UseNegatives {
		s.negatives = append(s.negatives, p)
		if s.negByFix == nil {
			s.negByFix = make(map[catalog.FixID][]Point)
		}
		s.negByFix[p.Action.Fix] = append(s.negByFix[p.Action.Fix], p)
		s.version++
	}
}

// Version implements versioned.
func (s *NearestNeighbor) Version() uint64 { return s.version }

// bulkLoadMin is the smallest success count AddBatch treats as a bulk
// load rather than a run of incremental inserts.
const bulkLoadMin = 128

// AddBatch implements Batcher. Small batches — an episode's flushed
// learn events — fold point by point into the Bentley–Saxe forest. A
// batch that dominates the store (a knowledge-base snapshot load, a
// federation catch-up, a merge) is bulk-loaded instead: points are
// appended index-less and the store is reindexed once into a single
// compact tree, so the build cost is paid once per batch and reads
// afterwards pay one tree descend instead of one per forest slot.
func (s *NearestNeighbor) AddBatch(ps []Point) {
	wins := 0
	for _, p := range ps {
		if p.Success {
			wins++
		}
	}
	if wins < bulkLoadMin || wins < s.ex.n {
		for _, p := range ps {
			s.Add(p)
		}
		return
	}
	for _, p := range ps {
		if p.Success {
			s.ex.appendOnly(p)
			s.version++
		} else if s.UseNegatives {
			s.negatives = append(s.negatives, p)
			if s.negByFix == nil {
				s.negByFix = make(map[catalog.FixID][]Point)
			}
			s.negByFix[p.Action.Fix] = append(s.negByFix[p.Action.Fix], p)
			s.version++
		}
	}
	s.ex.reindex()
}

// Clone implements Cloner: an independent copy sharing the immutable
// exemplar points.
func (s *NearestNeighbor) Clone() Synopsis {
	var negByFix map[catalog.FixID][]Point
	if s.negByFix != nil {
		negByFix = make(map[catalog.FixID][]Point, len(s.negByFix))
		for k, v := range s.negByFix {
			negByFix[k] = v[:len(v):len(v)]
		}
	}
	return &NearestNeighbor{
		UseNegatives: s.UseNegatives,
		ex:           s.ex.clone(),
		negatives:    s.negatives[:len(s.negatives):len(s.negatives)],
		negByFix:     negByFix,
		version:      s.version,
	}
}

// Reset implements Resetter: back to empty, keeping UseNegatives.
func (s *NearestNeighbor) Reset() {
	s.ex = newExemplars()
	s.negatives = nil
	s.negByFix = nil
	s.version++
}

// Forget drops all but the keep most recent successes (and negatives):
// the eviction step of the §5.2 drift ablation's sliding window.
func (s *NearestNeighbor) Forget(keep int) {
	s.ex.forget(keep)
	if len(s.negatives) > keep {
		s.negatives = append([]Point(nil), s.negatives[len(s.negatives)-keep:]...)
		s.negByFix = make(map[catalog.FixID][]Point)
		for _, p := range s.negatives {
			s.negByFix[p.Action.Fix] = append(s.negByFix[p.Action.Fix], p)
		}
	}
	s.version++
}

// rankFixes scores each fix by its nearest successful exemplar. On the
// indexed path every fix's nearest is found by one group traversal of
// the tagged forest (nearestPerFix) rather than one search per fix —
// per-fix searches would each re-descend the same top levels and
// re-establish their bound from scratch, and on a million-point store
// that repeated work dominates query latency. The exemplar found while
// scoring is cached on the fixScore so the suggest/rank helpers resolve
// targets without a second search.
func (s *NearestNeighbor) rankFixes(pr *probe) []fixScore {
	x := pr.x
	if g := s.ex.nearestPerFix(pr, nil); g != nil {
		out := make([]fixScore, 0, len(g.d))
		for i, fix := range s.ex.cls.fixes {
			if !g.found[i] {
				continue
			}
			action := s.ex.all[g.ord[i]].Action
			out = append(out, fixScore{
				fix:       fix,
				score:     s.scoreFix(x, fix, g.d[i]),
				action:    action,
				hasAction: true,
			})
		}
		sortFixScores(out)
		return out
	}
	out := make([]fixScore, 0, s.ex.cls.len())
	for _, fix := range s.ex.cls.fixes {
		action, d, ok := s.ex.bruteNearest(x, fix, nil)
		if !ok {
			continue
		}
		out = append(out, fixScore{fix: fix, score: s.scoreFix(x, fix, d), action: action, hasAction: true})
	}
	sortFixScores(out)
	return out
}

// scoreFix converts the distance to fix's nearest success into its score,
// applying the negative-sample penalty when enabled.
func (s *NearestNeighbor) scoreFix(x []float64, fix catalog.FixID, d float64) float64 {
	score := 1 / (1 + d)
	if s.UseNegatives {
		// A failed attempt of this fix closer than its best success
		// weakens the recommendation.
		for _, n := range s.negByFix[fix] {
			nd := euclidean(x, n.X)
			if nd < d {
				score *= (nd + 1e-9) / (d + 1e-9)
			}
		}
	}
	return score
}

// Suggest implements Synopsis.
func (s *NearestNeighbor) Suggest(x []float64, filter *ActionFilter) (Suggestion, bool) {
	pr := &probe{x: x}
	return suggestFrom(s.rankFixes(pr), s.ex, pr, filter)
}

// RankK implements Synopsis.
func (s *NearestNeighbor) RankK(x []float64, k int) []Suggestion {
	pr := &probe{x: x}
	return rankKFrom(s.rankFixes(pr), s.ex, pr, k)
}
