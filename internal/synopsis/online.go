package synopsis

// Online wraps a base synopsis with a sliding training window so it keeps
// tracking a drifting service — the paper's §5.2 online-learning
// requirement: "unless the synopses are kept up to date efficiently as new
// data becomes available, accuracy can drop sharply in dynamic settings".
type Online struct {
	base interface {
		Synopsis
		Forget(keep int)
	}
	// Window is the number of recent successful observations retained.
	Window int
	added  int
	writes uint64
}

// NewOnline wraps base with a sliding window of the given size. The base
// must support Forget; NearestNeighbor, KMeans and AdaBoost all do.
func NewOnline(base interface {
	Synopsis
	Forget(keep int)
}, window int) *Online {
	if window < 1 {
		window = 1
	}
	return &Online{base: base, Window: window}
}

// Name implements Synopsis.
func (s *Online) Name() string { return "online-" + s.base.Name() }

// TrainingSize implements Synopsis.
func (s *Online) TrainingSize() int { return s.base.TrainingSize() }

// Add implements Synopsis, evicting old observations past the window.
func (s *Online) Add(p Point) {
	s.base.Add(p)
	s.writes++
	if p.Success {
		s.added++
		if s.added > s.Window {
			s.base.Forget(s.Window)
		}
	}
}

// AddBatch implements Batcher: the batch goes to the base in one step
// (through the base's own batching when it has one) and the sliding window
// is trimmed once at the end instead of once per evicted point. Eviction
// is therefore batch-granular: the surviving successes match a sequential
// Add-by-Add replay exactly, but a base that also retains failed points
// (NearestNeighbor with UseNegatives) trims them against the batch's
// final state, which can evict negatives an interleaved replay would have
// kept a little longer.
func (s *Online) AddBatch(ps []Point) {
	AddAll(s.base, ps)
	s.writes++
	for _, p := range ps {
		if p.Success {
			s.added++
		}
	}
	if s.added > s.Window {
		s.base.Forget(s.Window)
	}
}

// Clone implements Cloner when the base does. It returns nil — "cannot
// be cloned" — when the base is not cloneable or its clone loses Forget;
// NewShared refuses such a synopsis.
func (s *Online) Clone() Synopsis {
	c, ok := s.base.(Cloner)
	if !ok {
		return nil
	}
	base, ok := c.Clone().(interface {
		Synopsis
		Forget(keep int)
	})
	if !ok {
		return nil
	}
	return &Online{base: base, Window: s.Window, added: s.added, writes: s.writes}
}

// Reset implements Resetter: the base goes back to empty (through its own
// Reset when it has one, else by forgetting everything) and the window
// counter restarts.
func (s *Online) Reset() {
	if r, ok := s.base.(Resetter); ok {
		r.Reset()
	} else {
		s.base.Forget(0)
	}
	s.added = 0
	s.writes++
}

// Suggest implements Synopsis.
func (s *Online) Suggest(x []float64, filter *ActionFilter) (Suggestion, bool) {
	return s.base.Suggest(x, filter)
}

// RankK implements Synopsis.
func (s *Online) RankK(x []float64, k int) []Suggestion { return s.base.RankK(x, k) }

// Rank implements Synopsis.
func (s *Online) Rank(x []float64) []Suggestion { return s.base.Rank(x) }

// Version implements versioned: the base's counter when it keeps one,
// otherwise this wrapper's write count — so a custom base without version
// tracking still reports every write as effective and is never left
// unpublished.
func (s *Online) Version() uint64 {
	if v, ok := s.base.(versioned); ok {
		return v.Version()
	}
	return s.writes
}

// Evaluation helpers shared by the experiments.

// Accuracy returns the fraction of test points whose suggested fix class
// matches the point's labeled fix. This is the y-axis of the paper's
// Figure 4 ("accuracy of the current synopsis computed on a fixed test
// set"): the synopses classify fixes, with targets resolved separately.
func Accuracy(s Synopsis, test []Point) float64 {
	if len(test) == 0 {
		return 0
	}
	correct := 0
	for i := range test {
		sug, ok := s.Suggest(test[i].X, nil)
		if ok && sug.Action.Fix == test[i].Action.Fix {
			correct++
		}
	}
	return float64(correct) / float64(len(test))
}
