package synopsis

import (
	"math"
	"math/bits"
)

// Sublinear nearest-neighbor search over immutable point sets.
//
// Every learner's hot read path bottoms out in "nearest exemplar of fix F
// to symptom x" (target resolution, §4.3.4) — historically a brute-force
// O(n) euclidean scan per query, which is the ceiling the benchgate's
// million-point rows pin. This file provides:
//
//   - Index: the pluggable build-from-points / Nearest(x, k) interface,
//     with a KD-tree implementation and a brute-force implementation that
//     doubles as the correctness oracle;
//   - the exemplar store's one index: a Bentley–Saxe forest (fixIndex)
//     whose trees tag every point with its fix class, maintained
//     incrementally on the write path, so index (re)builds are amortized
//     onto Add/AddBatch — which Shared serializes behind its writer lock —
//     and never happen on the lock-free read path. Readers (snapshot
//     clones) only ever traverse immutable trees.
//
// Results are byte-identical to the brute scan they replace: distances are
// computed by the same euclidean() on the same float64s, and the winner is
// the (distance, arrival ordinal)-minimal point, exactly the point the
// strict `d < best` insertion-order scan selects. KD pruning is
// conservative (a subtree is visited whenever its axis bound ties the
// current best) so equal-distance candidates are never pruned away.

// Neighbor is one result of an Index query: the ordinal of a point in the
// indexed set and its euclidean distance from the query vector.
type Neighbor struct {
	// Ord is the point's position in the point set the index was built
	// over (its arrival order for incrementally-maintained indexes).
	Ord int
	// Dist is euclidean(x, point.X), bitwise equal to a direct call.
	Dist float64
}

// Index answers k-nearest-neighbor queries over a fixed set of points. An
// index is immutable once built: queries are safe from any number of
// goroutines concurrently. Nearest returns the accepted points nearest to
// x, sorted ascending by (Dist, Ord); accept(ord) filters candidates
// during the search (nil accepts everything). k < 0 returns every
// accepted point.
type Index interface {
	Nearest(x []float64, k int, accept func(ord int) bool) []Neighbor
	Len() int
}

// NewBruteForceIndex wraps pts in a linear-scan Index — the fallback for
// tiny sets and the oracle indexed implementations are tested against.
func NewBruteForceIndex(pts []Point) Index { return &bruteIndex{pts: pts} }

// NewKDTreeIndex builds a KD-tree Index over pts. Build cost is
// O(n·dim·log n); queries are sublinear on separable data and never worse
// than the brute scan.
func NewKDTreeIndex(pts []Point) Index {
	ords := make([]int, len(pts))
	for i := range ords {
		ords[i] = i
	}
	return &kdIndex{t: buildKD(pts, ords)}
}

// bruteIndex is the O(n) oracle.
type bruteIndex struct{ pts []Point }

func (b *bruteIndex) Len() int { return len(b.pts) }

func (b *bruteIndex) Nearest(x []float64, k int, accept func(ord int) bool) []Neighbor {
	col := newCollector(k)
	for ord := range b.pts {
		if accept != nil && !accept(ord) {
			continue
		}
		col.consider(ord, euclidean(x, b.pts[ord].X))
	}
	return col.nbs
}

// kdIndex adapts one KD-tree to the Index interface.
type kdIndex struct{ t *kdtree }

func (i *kdIndex) Len() int { return len(i.t.ords) }

func (i *kdIndex) Nearest(x []float64, k int, accept func(ord int) bool) []Neighbor {
	col := newCollector(k)
	if k != 0 && len(i.t.ords) > 0 {
		i.t.searchK(&probe{x: x}, col, accept)
	}
	return col.nbs
}

// collector accumulates the k best (Dist, Ord) pairs, kept sorted
// ascending; full means worst-of-k is the prune bound.
type collector struct {
	k   int // <0: unbounded
	nbs []Neighbor
}

func newCollector(k int) *collector {
	c := &collector{k: k}
	if k > 0 {
		c.nbs = make([]Neighbor, 0, k)
	}
	return c
}

// worse reports whether (d1,o1) orders after (d2,o2). A NaN distance orders
// after every number, so the order is total and a result does not depend on
// the order its points were offered in.
func worse(d1 float64, o1 int, d2 float64, o2 int) bool {
	if d1 < d2 {
		return false
	}
	if d1 > d2 {
		return true
	}
	if nan1, nan2 := d1 != d1, d2 != d2; nan1 != nan2 {
		return nan1
	}
	return o1 > o2
}

func (c *collector) consider(ord int, d float64) {
	if c.k == 0 {
		return
	}
	if c.k > 0 && len(c.nbs) == c.k {
		last := c.nbs[len(c.nbs)-1]
		if !worse(last.Dist, last.Ord, d, ord) {
			return
		}
		c.nbs = c.nbs[:len(c.nbs)-1]
	}
	i := len(c.nbs)
	c.nbs = append(c.nbs, Neighbor{})
	for i > 0 && worse(c.nbs[i-1].Dist, c.nbs[i-1].Ord, d, ord) {
		c.nbs[i] = c.nbs[i-1]
		i--
	}
	c.nbs[i] = Neighbor{Ord: ord, Dist: d}
}

// bound returns the prune radius: the current worst kept distance, +Inf
// while the collector still has room.
func (c *collector) bound() float64 {
	if c.k < 0 || len(c.nbs) < c.k {
		return math.Inf(1)
	}
	return c.nbs[len(c.nbs)-1].Dist
}

// kdtree is an immutable KD-tree over a subset (ords) of a point slice.
// Internal nodes split at the median of the widest-spread dimension of the
// rows' keys — their head coordinates when the tree keeps a head (see
// head.go), their raw coordinates otherwise; leaves hold up to kdLeafCap
// ordinals scanned brute-force with the same euclidean() as everything else.
type kdtree struct {
	pts   []Point
	ords  []int
	nodes []kdnode
	// xs packs the points' coordinates in ords order (stride floats per
	// point, zero-padded — zero is "no anomaly", so padding changes no
	// distance). Leaf scans stream this contiguous block instead of
	// chasing pts[ord].X pointers across the heap; on a million-point
	// tree the pointer chase's cache misses, not arithmetic, dominate
	// the scan. In an exemplar store that owns its points the rows are
	// also the points' storage: each indexed point's X is its row, capped
	// at its own length (see exemplars.adopt).
	xs     []float64
	stride int
	// tags, when present, holds each leaf point's dense class tag in ords
	// order (see kdtree.packTags); group queries read it to know which
	// class's bound a candidate competes against. masks, kept by a headed
	// tree whose tags all fit, holds per node the set of tags beneath it.
	tags  []int32
	masks []uint64
	// head, when the tree is big and wide enough to keep one (see head.go),
	// holds a short projection of every row in ords order and a box over
	// them per node; searches test those first and open only the rows they
	// cannot rule out.
	head *kdHead
}

// kdnode is one tree node. left < 0 marks a leaf over ords[lo:hi].
type kdnode struct {
	split       float64
	lo, hi      int32
	left, right int32
	dim         int32
}

// kdLeafCap is the leaf bucket size: below this a linear scan beats tree
// traversal, and median-split recursion stops.
const kdLeafCap = 16

// buildKD builds a tree over pts[ords...]; it partitions ords in place and
// keeps it as the tree's backing, so callers must hand over ownership. A
// tree big and wide enough keeps a head, fitted to its own rows, and is
// built over it.
func buildKD(pts []Point, ords []int) *kdtree {
	t := &kdtree{pts: pts, ords: ords}
	t.nodes = make([]kdnode, 0, 2*(len(ords)/kdLeafCap)+1)
	for _, ord := range ords {
		if len(pts[ord].X) > t.stride {
			t.stride = len(pts[ord].X)
		}
	}
	if len(ords) >= headMinRows && t.stride > headDirs {
		t.head = newHead(pts, ords, t.stride)
	}
	if len(ords) > 0 {
		t.build(0, len(ords))
	}
	// The recursion has settled ords into leaf order: pack the rows.
	t.xs = make([]float64, len(ords)*t.stride)
	for i, ord := range ords {
		copy(t.row(int32(i)), pts[ord].X)
	}
	if t.head != nil {
		t.head.finish(t)
	}
	return t
}

// row returns the packed coordinates of the point at position i of ords.
func (t *kdtree) row(i int32) []float64 {
	return t.xs[int(i)*t.stride : (int(i)+1)*t.stride]
}

// packTags stores each point's dense class tag alongside the packed
// coordinates so group-query leaf scans read the tag from the same cache
// lines they stream anyway, and, for a headed tree whose tags all fit a
// word, every node's set of tags (children before parents).
func (t *kdtree) packTags(tagOf []int32) {
	t.tags = make([]int32, len(t.ords))
	fits := t.head != nil
	for i, ord := range t.ords {
		t.tags[i] = tagOf[ord]
		fits = fits && tagOf[ord] < 64
	}
	if !fits {
		return
	}
	t.masks = make([]uint64, len(t.nodes))
	for ni := len(t.nodes) - 1; ni >= 0; ni-- {
		n := &t.nodes[ni]
		if n.left >= 0 {
			t.masks[ni] = t.masks[n.left] | t.masks[n.right]
			continue
		}
		for _, tag := range t.tags[n.lo:n.hi] {
			t.masks[ni] |= 1 << uint(tag)
		}
	}
}

// keys returns the coordinates the build splits the row at position i of
// ords on: the split key is the one thing a headed build does differently.
func (t *kdtree) keys(i int) []float64 {
	if t.head != nil {
		return t.head.proj[i*headDirs : (i+1)*headDirs]
	}
	return t.pts[t.ords[i]].X
}

// swap exchanges positions i and j of ords, and the keys that travel with
// them.
func (t *kdtree) swap(i, j int) {
	t.ords[i], t.ords[j] = t.ords[j], t.ords[i]
	if t.head != nil {
		a, b := t.keys(i), t.keys(j)
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
	}
}

func (t *kdtree) build(lo, hi int) int32 {
	me := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdnode{left: -1, right: -1, lo: int32(lo), hi: int32(hi)})
	if hi-lo <= kdLeafCap {
		return me
	}
	dim, spread := t.widestDim(lo, hi)
	if !(spread > 0) {
		return me // all points identical on every axis: leaf
	}
	mid := (lo + hi) / 2
	t.selectNth(lo, hi, mid, dim)
	split := feature(t.keys(mid), dim)
	l := t.build(lo, mid)
	r := t.build(mid, hi)
	n := &t.nodes[me] // re-take after child appends may have grown nodes
	n.left, n.right, n.dim, n.split = l, r, int32(dim), split
	return me
}

// widestDim returns the dimension with the largest value spread over the
// keys of ords[lo:hi] and that spread (the lowest such dimension on a tie).
// It walks point by point, each vector once front to back, keeping every
// dimension's running minimum and maximum: a wide vector is a cache line
// run, where walking dimension by dimension would fetch every vector once
// per dimension.
func (t *kdtree) widestDim(lo, hi int) (int, float64) {
	dims := 0
	for i := lo; i < hi; i++ {
		if n := len(t.keys(i)); n > dims {
			dims = n
		}
	}
	mn := make([]float64, 2*dims)
	mx := mn[dims:]
	for d := range mx {
		mn[d], mx[d] = math.Inf(1), math.Inf(-1) // a NaN moves neither
	}
	for i := lo; i < hi; i++ {
		x := t.keys(i)
		for d, v := range x {
			if v < mn[d] {
				mn[d] = v
			}
			if v > mx[d] {
				mx[d] = v
			}
		}
		for d := len(x); d < dims; d++ { // a shorter vector reads zero there
			if 0 < mn[d] {
				mn[d] = 0
			}
			if 0 > mx[d] {
				mx[d] = 0
			}
		}
	}
	best, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		if s := mx[d] - mn[d]; s > bestSpread {
			best, bestSpread = d, s
		}
	}
	return best, bestSpread
}

// selectNth partially sorts ords[lo:hi] so ords[n] holds the n-th smallest
// key on dim, everything left of n is <= it and everything right is >= it
// (deterministic median-of-three quickselect).
func (t *kdtree) selectNth(lo, hi, n, dim int) {
	key := func(i int) float64 { return feature(t.keys(i), dim) }
	for hi-lo > 1 {
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if key(mid) < key(lo) {
			t.swap(mid, lo)
		}
		if key(hi-1) < key(lo) {
			t.swap(hi-1, lo)
		}
		if key(mid) < key(hi-1) {
			t.swap(mid, hi-1)
		}
		pivot := key(hi - 1)
		store := lo
		for i := lo; i < hi-1; i++ {
			if key(i) < pivot {
				t.swap(i, store)
				store++
			}
		}
		t.swap(hi-1, store)
		switch {
		case store == n:
			return
		case store < n:
			lo = store + 1
		default:
			hi = store
		}
	}
}

// euclideanUnder computes euclidean(a, b) unless the distance provably
// exceeds limit, bailing out early (ok=false) once the partial squared
// sum alone puts the point past the limit. When ok is true, d is bitwise
// equal to euclidean(a, b): the same terms accumulate in the same order,
// so the final sqrt sees the same float64. The bail condition is strict
// — sqrt(partial) > limit implies the full distance beats limit even
// after sqrt rounding (the full sum only grows and sqrt is monotonic), so
// a point at exactly the limit distance is never skipped and ordinal
// tie-breaks stay reachable; an infinite limit never bails. Over the
// coordinates both vectors have, the bound is looked at once per four: a
// later look sees a larger partial sum, so it bails on no point an earlier
// look would have kept.
func euclideanUnder(a, b []float64, limit float64) (float64, bool) {
	if len(a) < len(b) {
		a, b = b, a // (−d)² is d², bit for bit
	}
	lim2 := limit * limit
	s := 0.0
	i, n := 0, len(b)
	a4 := a[:n]
	for ; i+4 <= n; i += 4 {
		d0, d1, d2, d3 := a4[i]-b[i], a4[i+1]-b[i+1], a4[i+2]-b[i+2], a4[i+3]-b[i+3]
		s += d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
		if s > lim2 && math.Sqrt(s) > limit {
			return 0, false
		}
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	// Past the shorter vector the other is compared with zeros.
	for _, d := range a[n:] {
		s += d * d
	}
	if s > lim2 && math.Sqrt(s) > limit {
		return 0, false
	}
	return math.Sqrt(s), true
}

// The two searches below share one traversal. It is an explicit-stack
// loop rather than recursion — the descend-check-pop cycle is the single
// hottest code in a big-KB query, and the call overhead of recursing once
// per node costs more than the arithmetic at each. Nodes wait on the stack
// (the root first); a popped node is tested against the bound known at pop
// time and, if it may still matter, descended to its near leaf, pushing the
// far sibling at every level. What the test is depends on the tree:
//
//   - an unheaded tree compares the query's gap to the split plane the node
//     lies beyond with the bound, visiting the node whenever the gap does
//     not exceed it (equal-distance candidates must stay reachable so the
//     ordinal tie-break matches the brute scan bitwise);
//   - a headed tree is split in head space, where a gap is not exact without
//     the slack, so it compares the query's distance to the node's box
//     instead (kdHead.boxBeyond), which subsumes the plane test — on popped
//     nodes and once more on the leaf a descent ends in — and then each
//     row's own head (kdHead.beyond) before opening the row.
//
// Either test skips only what is provably farther than the bound.

// kdFrame is a node waiting on a search's stack: diff is the query's signed
// gap to the split plane the node lies beyond (0 for the root).
type kdFrame struct {
	node int32
	diff float64
}

// kdStack holds the nodes a search has still to look at. Median splits halve
// each level, so depth ≤ log2(n/kdLeafCap)+1; 64 frames covers any point
// count a process can hold. A search starts it at n = 1: the zero frame is
// the root.
type kdStack struct {
	frames [64]kdFrame
	n      int
}

// start projects the query for a search of t and returns it with the
// coordinates a descent compares with the nodes' splits.
func (t *kdtree) start(pr *probe, hq *headQuery) []float64 {
	if t.head == nil {
		return pr.x
	}
	*hq = pr.head(t.head)
	return hq.q[:headDirs]
}

// far reports whether a waiting node provably holds no row within limit.
func (t *kdtree) far(f kdFrame, hq *headQuery, limit float64) bool {
	if t.head != nil {
		return t.head.boxBeyond(f.node, hq, limit)
	}
	return f.diff*f.diff > limit*limit
}

// descend walks from node ni to the leaf on the query's side of every split,
// pushing the far siblings, and returns the leaf's index.
func (t *kdtree) descend(ni int32, q []float64, stack *kdStack) int32 {
	for n := &t.nodes[ni]; n.left >= 0; n = &t.nodes[ni] {
		diff := feature(q, int(n.dim)) - n.split
		far := n.right
		ni = n.left
		if diff > 0 {
			ni, far = far, ni
		}
		stack.frames[stack.n] = kdFrame{node: far, diff: diff}
		stack.n++
	}
	return ni
}

// groupBest tracks, for every dense class tag, the best (distance,
// ordinal) candidate seen so far: one nearest-neighbor search fanned out
// across all classes in a single traversal. d is +Inf for a class still
// unseen: like the brute insertion-order scan, a class never takes a point
// at an infinite or NaN distance. bound is the shared prune radius — the
// worst per-class best, infinite while any class is still unseen — since a
// subtree farther than every class's current best can improve none of them.
type groupBest struct {
	d      []float64
	ord    []int
	found  []bool
	nFound int
	bound  float64
}

func newGroupBest(k int) *groupBest {
	g := &groupBest{
		d:     make([]float64, k),
		ord:   make([]int, k),
		found: make([]bool, k),
		bound: math.Inf(1),
	}
	for i := range g.d {
		g.d[i] = math.Inf(1)
	}
	return g
}

// consider offers (ord, d) as tag's candidate, keeping the (distance,
// ordinal)-minimal one — the winner the brute scan picks.
func (g *groupBest) consider(tag int32, ord int, d float64) {
	if !(d < g.d[tag] || (d == g.d[tag] && ord < g.ord[tag] && g.found[tag])) {
		return // a NaN or infinite distance never gets past this
	}
	if !g.found[tag] {
		g.found[tag], g.nFound = true, g.nFound+1
	}
	g.d[tag], g.ord[tag] = d, ord
	g.refreshBound()
}

// refreshBound recomputes the shared prune radius after a per-class best
// moved. Bests only ever tighten, and they move a bounded number of times
// per query, so the O(classes) recompute is noise next to one leaf scan.
func (g *groupBest) refreshBound() {
	if g.nFound < len(g.d) {
		return // stays +Inf until every class has a candidate
	}
	m := 0.0
	for _, d := range g.d {
		if d > m {
			m = d
		}
	}
	g.bound = m
}

// limit returns the loosest bound a row under node ni of t competes against:
// the worst best among the classes the node holds when the tree keeps their
// masks (+Inf while one of them is unseen), the shared bound otherwise.
func (g *groupBest) limit(t *kdtree, ni int32) float64 {
	if t.masks == nil {
		return g.bound
	}
	lim := 0.0
	for m := t.masks[ni]; m != 0; m &= m - 1 {
		if d := g.d[bits.TrailingZeros64(m)]; d > lim {
			lim = d
		}
	}
	return lim
}

// searchGroup finds every class's nearest point that filter does not exclude
// (nil excludes nothing) in one traversal: it maintains all per-class
// bests, skipping nodes on the loosest bound among the classes they hold
// and bailing per point on that point's own class bound. For k classes over
// a dense store this replaces k independent searches — each re-descending
// the same top levels and re-establishing its bound from scratch — with
// one, so a full per-fix scoring pass costs barely more than a single
// nearest-neighbor query. The tree must have packed tags.
func (t *kdtree) searchGroup(pr *probe, g *groupBest, filter *ActionFilter) {
	var hq headQuery
	q := t.start(pr, &hq)
	stack := kdStack{n: 1}
	for stack.n > 0 {
		stack.n--
		f := stack.frames[stack.n]
		if t.far(f, &hq, g.limit(t, f.node)) {
			continue
		}
		leaf := t.descend(f.node, q, &stack)
		if leaf != f.node && t.head != nil && t.head.boxBeyond(leaf, &hq, g.limit(t, leaf)) {
			continue
		}
		for n, i := &t.nodes[leaf], t.nodes[leaf].lo; i < n.hi; i++ {
			tag := t.tags[i]
			if t.head != nil && t.head.beyond(i, &hq, g.d[tag]) {
				continue
			}
			ord := t.ords[i]
			// Testing nil first spares an unfiltered read the load of
			// every surviving row's Point.
			if filter != nil && filter.Excludes(t.pts[ord].Action) {
				continue
			}
			if d, ok := euclideanUnder(pr.x, t.row(i), g.d[tag]); ok {
				g.consider(tag, ord, d)
			}
		}
	}
}

// searchK finds the k nearest accepted points into a k-bounded collector.
func (t *kdtree) searchK(pr *probe, col *collector, accept func(ord int) bool) {
	var hq headQuery
	q := t.start(pr, &hq)
	stack := kdStack{n: 1}
	for stack.n > 0 {
		stack.n--
		f := stack.frames[stack.n]
		if t.far(f, &hq, col.bound()) {
			continue
		}
		leaf := t.descend(f.node, q, &stack)
		if leaf != f.node && t.head != nil && t.head.boxBeyond(leaf, &hq, col.bound()) {
			continue
		}
		for n, i := &t.nodes[leaf], t.nodes[leaf].lo; i < n.hi; i++ {
			if t.head != nil && t.head.beyond(i, &hq, col.bound()) {
				continue
			}
			ord := t.ords[i]
			if accept != nil && !accept(ord) {
				continue
			}
			if d, ok := euclideanUnder(pr.x, t.row(i), col.bound()); ok {
				col.consider(ord, d)
			}
		}
	}
}

// fixIndex is the exemplar store's incrementally-maintained index, tagged by
// fix class: a Bentley–Saxe logarithmic forest of immutable KD-trees (slot
// i holds a tree of exactly
// kdBlock<<i points, or nil) plus a small tail of not-yet-indexed
// ordinals. Inserts append to the tail; when the tail reaches kdBlock it
// is flushed into the forest with a carry-propagate merge (build a block
// tree, merging every filled slot upward), which makes insertion cost
// amortized logarithmic while queries touch O(log n) trees plus a
// bounded-length tail scan — never a full linear rescan.
//
// Mutation is copy-on-write at the slice-header level: flushes install a
// freshly-allocated trees slice and a nil tail, and trees themselves are
// immutable, so a clone holding the old headers keeps reading a consistent
// (merely older) forest. This is what lets Shared's snapshot clones query
// lock-free while the writer keeps inserting.
type fixIndex struct {
	trees []*kdtree
	tail  []int
	// tagOf maps every point ordinal to its dense class tag (see
	// classSet); every tree this forest builds carries packed per-leaf
	// tags, so a group query (nearestAll) finds every class's nearest
	// point in one traversal. The owner refreshes the slice header before
	// every mutation; the prefix a built tree has read is immutable, so
	// clones and old trees stay consistent.
	tagOf []int32
}

// kdBlock is the forest's base tree size and the tail-scan bound.
const kdBlock = 32

// insert adds the point at ordinal ord of pts (the store's full arrival
// slice) to the index, returning the tree a flush built (nil when the
// point only joined the tail).
func (fi *fixIndex) insert(pts []Point, ord int) *kdtree {
	fi.tail = append(fi.tail, ord)
	if len(fi.tail) < kdBlock {
		return nil
	}
	return fi.flush(pts)
}

// flush merges the tail into the forest, carry-propagating from slot 0, and
// returns the tree it built.
func (fi *fixIndex) flush(pts []Point) *kdtree {
	ords := append([]int(nil), fi.tail...)
	trees := append([]*kdtree(nil), fi.trees...)
	slot := 0
	for ; slot < len(trees) && trees[slot] != nil; slot++ {
		ords = append(ords, trees[slot].ords...)
		trees[slot] = nil
	}
	t := buildKD(pts, ords)
	t.packTags(fi.tagOf)
	if slot == len(trees) {
		trees = append(trees, t)
	} else {
		trees[slot] = t
	}
	fi.trees = trees
	fi.tail = nil
	return t
}

// bulkLoad replaces the forest with one compact tree over all of pts,
// parked at the slot whose capacity matches the point count so later
// incremental inserts keep their amortized bound: lower slots fill
// normally and the compact tree is only merged once the carries reach
// it, exactly as if it had been built by insertion. It returns the tree
// (nil for no points).
func (fi *fixIndex) bulkLoad(pts []Point) *kdtree {
	fi.tail = nil
	fi.trees = nil
	if len(pts) == 0 {
		return nil
	}
	ords := make([]int, len(pts))
	for i := range ords {
		ords[i] = i
	}
	slot := 0
	for kdBlock<<slot < len(pts) {
		slot++
	}
	t := buildKD(pts, ords)
	t.packTags(fi.tagOf)
	fi.trees = make([]*kdtree, slot+1)
	fi.trees[slot] = t
	return t
}

// clone returns a read snapshot sharing the immutable trees; the tail
// header is capped so the writer's future appends reallocate.
func (fi *fixIndex) clone() *fixIndex {
	return &fixIndex{
		trees: fi.trees[:len(fi.trees):len(fi.trees)],
		tail:  fi.tail[:len(fi.tail):len(fi.tail)],
		tagOf: fi.tagOf[:len(fi.tagOf):len(fi.tagOf)],
	}
}

// nearestAll runs the per-class nearest search over the whole forest in
// group mode, skipping the points f excludes (nil excludes nothing): tail
// first — the newest points are where previously-unseen classes live, so
// scanning them up front turns the shared bound finite as early as
// possible — then trees from the smallest slot up, so each later (bigger)
// tree is searched with the tightest bounds available. pts must be the
// store's full arrival slice.
func (fi *fixIndex) nearestAll(pts []Point, pr *probe, g *groupBest, f *ActionFilter) {
	for _, ord := range fi.tail {
		if f != nil && f.Excludes(pts[ord].Action) {
			continue
		}
		tag := fi.tagOf[ord]
		if d, ok := euclideanUnder(pr.x, pts[ord].X, g.d[tag]); ok {
			g.consider(tag, ord, d)
		}
	}
	for _, t := range fi.trees {
		if t != nil {
			t.searchGroup(pr, g, f)
		}
	}
}
