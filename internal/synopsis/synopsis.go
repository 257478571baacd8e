// Package synopsis implements the learned "synopses" of the paper's §5.2:
// models that map failure symptoms to fixes. It provides the three
// techniques the paper evaluates in Figure 4 and Table 3 — nearest
// neighbor, k-means clustering (one cluster per successful fix), and
// AdaBoost (SAMME ensemble of decision stumps, 60 weak learners) — plus a
// Gaussian naive-Bayes synopsis for confidence estimates and ranking.
//
// Learners classify at the fix level (the paper's classes: microreboot,
// update statistics, repartition, ...) and resolve the fix's target
// (which EJB, which table) from the nearest successful exemplar of that
// fix — the signature lookup of §4.3.4.
//
// All learners consume Points: symptom vectors labeled with the action
// attempted and whether it worked, exactly the data FixSym's loop produces
// (Figure 3 lines 14–15).
package synopsis

import (
	"fmt"
	"math"
	"sort"

	"selfheal/internal/catalog"
)

// Action is a concrete recovery action: a fix and its target (e.g.
// microreboot-ejb on ItemBean).
type Action struct {
	// Fix is the Table 1 candidate fix being applied.
	Fix catalog.FixID
	// Target names what the fix acts on — an EJB, a table, a replica —
	// or "" for service-wide fixes.
	Target string
}

// Key returns a stable string identity for the action.
func (a Action) Key() string { return fmt.Sprintf("%s|%s", a.Fix, a.Target) }

// String renders the action for logs.
func (a Action) String() string {
	if a.Target == "" {
		return a.Fix.String()
	}
	return a.Fix.String() + "(" + a.Target + ")"
}

// Point is one training observation: the symptom vector of a failure, the
// action attempted against it, and whether the action recovered the
// service.
type Point struct {
	// X is the symptom vector: per-metric z-scores against the healthy
	// baseline, laid out in the symptom space's dimension order.
	// Dimensions beyond len(X) read zero — "no anomaly" (see feature).
	X []float64
	// Action is the recovery action that was attempted.
	Action Action
	// Success records whether the action recovered the service.
	Success bool
}

// Suggestion is a recommended action with a confidence in [0,1].
type Suggestion struct {
	// Action is the recommended fix and target.
	Action Action
	// Confidence is the learner's normalized score for the action.
	Confidence float64
}

// Synopsis is the interface every learner implements. Add folds in one
// observation; Suggest recommends the best non-excluded action for a
// symptom vector; RankK returns the top candidate actions ordered by
// confidence (the §5.2 ranking extension).
type Synopsis interface {
	// Name identifies the learner (e.g. "nearest-neighbor").
	Name() string
	// Add folds one observation into the model.
	Add(p Point)
	// Suggest recommends the best action for symptom vector x not
	// excluded by the filter (nil excludes nothing); ok is false when
	// the model has nothing to offer.
	Suggest(x []float64, filter *ActionFilter) (Suggestion, bool)
	// RankK returns the k highest-confidence candidate actions, ordered
	// by confidence. k < 0 means every candidate. Confidences are
	// normalized over the full candidate set regardless of k, so
	// RankK(x, k) is always exactly RankK(x, -1)[:k] — but an indexed
	// learner resolves targets only for the k returned fixes instead of
	// materializing the whole ranking.
	RankK(x []float64, k int) []Suggestion
	// TrainingSize returns the number of successful observations held.
	TrainingSize() int
}

// Batcher is implemented by synopses that can fold many observations in
// one step. For learners that refit after every observation (AdaBoost's
// ensemble, KMeans' reclustering) a batch pays the refit cost once instead
// of once per point, which is what makes flushing a whole episode's learn
// events at a time worthwhile.
type Batcher interface {
	// AddBatch folds every point in one step, refitting once at the end.
	AddBatch(ps []Point)
}

// AddAll folds ps into s, through AddBatch when s supports it.
func AddAll(s Synopsis, ps []Point) {
	if b, ok := s.(Batcher); ok {
		b.AddBatch(ps)
		return
	}
	for _, p := range ps {
		s.Add(p)
	}
}

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

// Cloner is implemented by synopses that can produce an independent copy
// sharing immutable internals with the original. The contract: reads on
// the clone (Suggest, RankK, TrainingSize, Export) remain correct no matter
// what is later Added to the original, and vice versa. Shared uses clones
// as lock-free read snapshots; every built-in learner implements it.
type Cloner interface {
	// Clone returns the independent read snapshot, or nil when the
	// synopsis cannot be cloned; Shared refuses such a synopsis.
	Clone() Synopsis
}

// feature reads coordinate d of x under the space's sparse-vector
// convention: symptom vectors are finitely-supported points in the named
// symptom space (detect.SymptomSpace), and a dimension beyond a vector's
// length is simply a metric the producing schema did not measure — zero,
// "no anomaly". Every learner reads coordinates through this helper so a
// vector and its zero-padded (or zero-truncated) form are fully
// interchangeable; that equivalence is what makes remapped knowledge-base
// points (snapshot format v2) behave identically to natively-built ones.
func feature(x []float64, d int) float64 {
	if d < len(x) {
		return x[d]
	}
	return 0
}

// width returns the dimensionality spanned by a set of points: the length
// of the longest vector. Coordinates past any one point's length read
// zero (see feature).
func width(ps []Point) int {
	w := 0
	for i := range ps {
		if len(ps[i].X) > w {
			w = len(ps[i].X)
		}
	}
	return w
}

// euclidean returns the L2 distance between two vectors in the symptom
// space, zero-extending the shorter one: a dimension only one side
// measures contributes that side's full anomaly magnitude. The coordinates
// both vectors have are summed first, then the longer one's remainder
// against zeros — the terms and the order feature() would give, without
// its two length tests per coordinate.
func euclidean(a, b []float64) float64 {
	if len(a) < len(b) {
		a, b = b, a // (−d)² is d², bit for bit
	}
	s := 0.0
	for i, v := range b {
		d := a[i] - v
		s += d * d
	}
	for _, d := range a[len(b):] {
		s += d * d
	}
	return math.Sqrt(s)
}

// classSet assigns dense indexes to the fixes seen so far.
type classSet struct {
	byFix map[catalog.FixID]int
	fixes []catalog.FixID
}

func newClassSet() *classSet {
	return &classSet{byFix: make(map[catalog.FixID]int)}
}

func (c *classSet) index(f catalog.FixID) int {
	if i, ok := c.byFix[f]; ok {
		return i
	}
	i := len(c.fixes)
	c.byFix[f] = i
	c.fixes = append(c.fixes, f)
	return i
}

func (c *classSet) len() int { return len(c.fixes) }

// clone copies the class index. The fixes slice is capped so appends by
// either side reallocate instead of clobbering the other's view.
func (c *classSet) clone() *classSet {
	byFix := make(map[catalog.FixID]int, len(c.byFix))
	for k, v := range c.byFix {
		byFix[k] = v
	}
	return &classSet{byFix: byFix, fixes: c.fixes[:len(c.fixes):len(c.fixes)]}
}

// exemplars stores successful observations for target resolution: given a
// symptom and a fix class, the recommended target is the target that
// worked for the nearest matching signature. Arrival order is kept so a
// sliding window (NearestNeighbor.Forget) evicts the globally oldest points.
//
// The store keeps one list and one index: all, in arrival order, and an
// incrementally-maintained KD-tree forest (gidx, see fixIndex) over it,
// whose trees tag every point with its fix's dense class (cls assigns the
// tags; fixOf[i] is the tag of all[i]). A fix's exemplars are the points of
// all carrying its tag, so every fix's nearest exemplar is found by one
// group traversal (nearestPerFix) instead of one search per fix. The
// forest is only ever mutated on the write path (add/forget), which Shared
// serializes; clones share the immutable trees. Until a store is cloned, an
// indexed point's X is its tree's packed row (see adopt), and only the
// tail's points hold their callers' vectors.
type exemplars struct {
	all   []Point
	cls   *classSet
	fixOf []int32
	gidx  *fixIndex
	n     int
	// shared is set once clone has handed all's backing array to another
	// store: a snapshot may be reading its points, so adopt leaves them
	// alone. forget and a reset start a fresh, unshared list.
	shared bool
}

// indexResolve gates the KD-tree read path; the oracle property test
// flips it off to force the brute scan the index must match bitwise.
var indexResolve = true

func newExemplars() *exemplars {
	return &exemplars{
		cls:  newClassSet(),
		gidx: &fixIndex{},
	}
}

func (e *exemplars) add(p Point) {
	e.appendOnly(p)
	e.gidx.tagOf = e.fixOf
	e.adopt(e.gidx.insert(e.all, len(e.all)-1))
}

// adopt makes t's packed rows the storage of the points it indexes: each
// point's X is re-pointed at its row, capped at its own length, and the
// vector it held before is garbage once its caller lets go. The floats are
// the same, so every distance and answer is too. A shared store adopts
// nothing, since a snapshot may be reading its points' X.
func (e *exemplars) adopt(t *kdtree) {
	if t == nil || e.shared {
		return
	}
	for i, ord := range t.ords {
		if x := e.all[ord].X; len(x) > 0 {
			e.all[ord].X = t.row(int32(i))[:len(x):len(x)]
		}
	}
}

// appendOnly adds p without maintaining the index; the caller owns
// calling reindex before the next read. Bulk loads use it so index
// construction happens once per load, not once per forest carry.
func (e *exemplars) appendOnly(p Point) {
	e.all = append(e.all, p)
	e.fixOf = append(e.fixOf, int32(e.cls.index(p.Action.Fix)))
	e.n++
}

// reindex rebuilds the index as one compact tree over the whole store. A
// freshly bulk-loaded store answers a query with a single tree descend,
// where the same points inserted one by one would leave a logarithmic
// forest whose every slot pays its own descend and leaf scan — on a
// million-point load that forest overhead, not the tree depth, is what
// dominates read latency.
func (e *exemplars) reindex() {
	e.gidx = &fixIndex{tagOf: e.fixOf}
	e.adopt(e.gidx.bulkLoad(e.all))
}

// forget keeps only the most recent keep points (strictly by arrival
// order) and rebuilds the index over them in one step: one compact tree,
// as after a bulk load. The survivors go to a fresh arrival list, which no
// snapshot shares, so the new tree's rows become their storage even when
// this store was shared.
func (e *exemplars) forget(keep int) {
	if e.n <= keep {
		return
	}
	rebuilt := newExemplars()
	for _, p := range e.all[len(e.all)-keep:] {
		rebuilt.appendOnly(p)
	}
	rebuilt.reindex()
	*e = *rebuilt
}

// clone copies the exemplar store with structural sharing: Points and
// KD-trees are immutable, so both sides can keep reading the shared
// backing arrays; the capped slice headers force either side's future
// appends to reallocate rather than write where the other can see.
//
// Ownership: a store owns its points' X until it is cloned. From then on
// both sides are shared, and neither re-points a point (adopt) while it
// keeps that arrival list. Only the writer's side ever finds the flag
// clear, so cloning a clone, even from many goroutines at once, only reads
// it.
func (e *exemplars) clone() *exemplars {
	if !e.shared {
		e.shared = true
	}
	return &exemplars{
		all:    e.all[:len(e.all):len(e.all)],
		cls:    e.cls.clone(),
		fixOf:  e.fixOf[:len(e.fixOf):len(e.fixOf)],
		gidx:   e.gidx.clone(),
		n:      e.n,
		shared: true,
	}
}

// bruteNearest is the brute scan the index must match: the action of fix's
// nearest exemplar to x that f does not exclude, with its distance — the
// first strictly nearest in arrival order among the points tagged with fix.
// Reads take it only while indexResolve is off.
func (e *exemplars) bruteNearest(x []float64, fix catalog.FixID, f *ActionFilter) (Action, float64, bool) {
	best := Action{}
	bestD := math.Inf(1)
	found := false
	tag, ok := e.cls.byFix[fix]
	if !ok {
		return best, bestD, found
	}
	for i, p := range e.all {
		if int(e.fixOf[i]) != tag || f.Excludes(p.Action) {
			continue
		}
		d := euclidean(x, p.X)
		if d < bestD {
			best, bestD, found = p.Action, d, true
		}
	}
	return best, bestD, found
}

// nearestPerFix finds every fix's nearest exemplar that f does not exclude
// (nil excludes nothing) in one group traversal of the tagged forest, or
// nil when the store is empty or the indexed path is gated off (callers
// then fall back to bruteNearest per fix). Results are bitwise identical to
// bruteNearest(pr.x, fix, f) for each fix: within one fix, global arrival
// order preserves per-fix arrival order, so the (distance, ordinal)
// tie-break selects the same exemplar either way.
func (e *exemplars) nearestPerFix(pr *probe, f *ActionFilter) *groupBest {
	if !indexResolve || e.cls.len() == 0 {
		return nil
	}
	g := newGroupBest(e.cls.len())
	e.gidx.nearestAll(e.all, pr, g, f)
	return g
}

// targets resolves one read's fixes to the actions of their nearest
// exemplars that f does not exclude. The indexed path answers every fix
// from one group traversal, run when the first fix needs it; with the index
// gated off each fix is brute-scanned.
type targets struct {
	ex *exemplars
	pr *probe
	f  *ActionFilter
	g  *groupBest
}

func (t *targets) of(fix catalog.FixID) (Action, bool) {
	if !indexResolve {
		a, _, ok := t.ex.bruteNearest(t.pr.x, fix, t.f)
		return a, ok
	}
	tag, ok := t.ex.cls.byFix[fix]
	if !ok {
		return Action{}, false
	}
	if t.g == nil {
		t.g = t.ex.nearestPerFix(t.pr, t.f)
	}
	if !t.g.found[tag] {
		return Action{}, false
	}
	return t.ex.all[t.g.ord[tag]].Action, true
}

// fixScore is a fix-level classification score. Learners whose scoring
// pass already resolved the fix's exemplar (nearest-neighbor: the score
// IS the nearest exemplar's distance) cache the action so suggestFrom
// and rankKFrom need not repeat the index search; hasAction false means
// "resolve on demand".
type fixScore struct {
	fix       catalog.FixID
	score     float64
	action    Action
	hasAction bool
}

// sortFixScores orders scores descending, ties by fix id for determinism.
func sortFixScores(fs []fixScore) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].score != fs[j].score {
			return fs[i].score > fs[j].score
		}
		return fs[i].fix < fs[j].fix
	})
}

// suggestFrom converts a ranked fix list into the best concrete action not
// rejected by the filter, resolving targets through the exemplar store.
func suggestFrom(ranked []fixScore, ex *exemplars, pr *probe, f *ActionFilter) (Suggestion, bool) {
	total := 0.0
	for _, r := range ranked {
		if r.score > 0 {
			total += r.score
		}
	}
	tg := targets{ex: ex, pr: pr, f: f}
	for _, r := range ranked {
		action, ok := r.action, r.hasAction
		// A cached exemplar is the fix's nearest: unless the filter
		// excludes it, it is also the nearest one the filter keeps.
		if !ok || f.Excludes(action) {
			action, ok = tg.of(r.fix)
		}
		if !ok {
			continue
		}
		conf := r.score
		if total > 0 {
			conf = r.score / total
		}
		return Suggestion{Action: action, Confidence: conf}, true
	}
	return Suggestion{}, false
}

// rankKFrom converts a ranked fix list into the top k resolved suggestions
// (no exclusions). Confidences are normalized over the full ranked list —
// not the returned prefix — so rankKFrom(ranked, ex, pr, k) is exactly the
// first k entries of the full ranking, while targets are looked up for the
// returned fixes only. k < 0 resolves everything.
func rankKFrom(ranked []fixScore, ex *exemplars, pr *probe, k int) []Suggestion {
	total := 0.0
	for _, r := range ranked {
		if r.score > 0 {
			total += r.score
		}
	}
	n := len(ranked)
	if k >= 0 && k < n {
		n = k
	}
	out := make([]Suggestion, 0, n)
	tg := targets{ex: ex, pr: pr}
	for _, r := range ranked {
		if len(out) == n {
			break
		}
		action, ok := r.action, r.hasAction
		if !ok {
			action, ok = tg.of(r.fix)
		}
		if !ok {
			continue
		}
		conf := r.score
		if total > 0 {
			conf = r.score / total
		}
		out = append(out, Suggestion{Action: action, Confidence: conf})
	}
	return out
}
