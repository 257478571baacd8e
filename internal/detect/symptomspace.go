package detect

import "sync"

// SymptomSpace assigns stable dimension indices to metric names, so that
// symptom vectors built from different target kinds align by *name*
// rather than by schema position. Dimensions with shared names (the
// service-level svc.* block, tier utilizations) land at identical indices
// for every target; names unique to one kind get indices of their own,
// where every other kind's vector holds zero (no anomaly) — explicitly,
// or implicitly by simply ending (the learners zero-extend short vectors,
// so the two are indistinguishable). This is what lets heterogeneous
// fleets pool experience in one shared knowledge base: cross-kind
// distances are computed over aligned, meaningful dimensions.
//
// Indices are assigned first-come in name order, so a process that only
// ever builds one target kind gets the identity mapping — symptom vectors
// are byte-for-byte what a positional builder would produce.
type SymptomSpace struct {
	mu  sync.Mutex
	idx map[string]int
}

// NewSymptomSpace returns an empty space.
func NewSymptomSpace() *SymptomSpace {
	return &SymptomSpace{idx: make(map[string]int)}
}

// DefaultSymptomSpace is the process-wide space the harness registers
// every target's metric schema into; one shared space per process is what
// makes knowledge bases portable across systems (§4.2) and fleets.
var DefaultSymptomSpace = NewSymptomSpace()

// Indices maps each name to its dimension, assigning fresh dimensions to
// names seen for the first time, in order.
func (s *SymptomSpace) Indices(names []string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = s.dim(name)
	}
	return out
}

// dim returns the dimension of name, assigning the next free one on first
// sight. Callers hold s.mu.
func (s *SymptomSpace) dim(name string) int {
	d, ok := s.idx[name]
	if !ok {
		d = len(s.idx)
		s.idx[name] = d
	}
	return d
}

// Dim returns the number of dimensions assigned so far.
func (s *SymptomSpace) Dim() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Names returns the space's name table in dimension order: Names()[d] is
// the metric name of dimension d. This is the schema a portable knowledge
// base records next to its point vectors (every snapshot and delta), so an
// importing process can realign them by name no matter in which order it
// registered its own target kinds.
func (s *SymptomSpace) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.idx))
	for name, d := range s.idx {
		out[d] = name
	}
	return out
}

// Remap re-expresses the vector x — written in the coordinate layout
// described by names, where names[d] is the metric name of x's dimension
// d — in this space's coordinates. Dimensions are reordered by name;
// names this space has never seen extend it (assigned fresh dimensions,
// exactly as Indices would); dimensions of this space whose names the
// writer did not cover read zero, meaning "no anomaly in a metric the
// writer did not measure". Trailing dimensions of x beyond len(names)
// cannot be named and are dropped; callers that care should validate
// lengths first.
//
// Remapping is what makes saved knowledge bases portable between
// processes that construct their target kinds in different orders: the
// same named coordinate always lands on the same dimension, so distances
// computed over remapped vectors equal the ones a same-order process
// would compute.
func (s *SymptomSpace) Remap(names []string, x []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(x)
	if len(names) < n {
		n = len(names)
	}
	maxd := -1
	idx := make([]int, n)
	for d := 0; d < n; d++ {
		idx[d] = s.dim(names[d])
		if idx[d] > maxd {
			maxd = idx[d]
		}
	}
	out := make([]float64, maxd+1)
	for d := 0; d < n; d++ {
		out[idx[d]] = x[d]
	}
	return out
}
