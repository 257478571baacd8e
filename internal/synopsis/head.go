package synopsis

import "math"

// Projected lower-bound heads.
//
// KD nodes that split raw coordinates prune on one coordinate at a time, and
// at the width real symptom vectors have (≈100) one coordinate's gap is never
// a useful share of a distance: every leaf is visited and every row scanned.
// What does prune at that width is a lower bound on the whole distance that is
// cheap to read. For any orthonormal directions b_1..b_k,
//
//	Σ_j (b_j·(x−v))²  ≤  ‖x−v‖²,
//
// so a tree keeps, beside its packed rows, each row's coordinates in a few
// fitted directions (its head), and is itself built over those coordinates:
// it splits on the widest of the first headDirs of them, and every node keeps
// the bounding box of its rows' head coordinates. A search projects the query
// once, skips a node whose box is already past the loosest bound its rows
// compete against, skips a row whose first headDirs coordinates (one cache
// line) put it past its own bound, and tests the rows that remain against
// headTailDirs further directions before opening them. Rows that survive go
// through the same euclideanUnder on the same packed floats as an unheaded
// tree's, so every accepted distance — and with it the (distance, ordinal)
// winner — is unchanged.

const (
	// headDirs is the number of directions of a head's first stage, the ones
	// a tree is split and boxed in: 8 float64 are one cache line per row.
	// Swept over {4, 8, 12, 16} on the 20,000-point real-width knowledge
	// base (PERFORMANCE.md): 8 reads fastest when every row pays for them.
	headDirs = 8
	// headTailDirs is the number of further directions only the rows that
	// pass the first stage are tested against: what was too dear on every
	// row is cheap on the survivors. Swept over {8, 16, 24}.
	headTailDirs = 16
	headAllDirs  = headDirs + headTailDirs
	// headMinRows is the smallest tree that keeps a head. A fit costs a few
	// million flops on the write path; below this a tree is rebuilt by the
	// forest's carries too often, and scanned too cheaply, to earn it back.
	headMinRows = 512
	// headSample bounds the rows a fit looks at (a stride through the rows in
	// the order the build received them).
	headSample = 256
	// headIters is the number of power-iteration steps per direction. The
	// directions need not be converged eigenvectors — any orthonormal set
	// gives a valid bound — only good enough to hold most of the spread.
	headIters = 8
	// headOrthoTol is the largest |b_i·b_j − δ_ij| a fitted basis may show.
	headOrthoTol = 1e-12
)

// The skip test, and why it is safe in floating point. Let d̂ be the
// distance euclidean computes for a row and ĥ² the head distance computed
// here over the first k directions (k = headDirs, then headAllDirs); a row
// is skipped only when
//
//	ĥ² > (limit + slack)² · headRel,   slack = headSlack·w·(‖x‖ + R),
//
// with w the row width and R the largest row norm in the tree. Write u =
// 2⁻⁵³. (1) The basis is orthonormal to headOrthoTol, so in exact arithmetic
// ‖B(x−v)‖ ≤ (1 + k·headOrthoTol)·‖x−v‖. (2) Each stored or query head
// coordinate is a w-term dot product with a unit vector, off by at most
// ≈w·u·‖v‖, so the computed head vector differs from B(x−v) by at most
// √k·w·u·(‖x‖+R) in norm: under headSlack·w·(‖x‖+R) with a factor of three
// to spare for k = 24 (five for k = 8; the error grows as √k and the slack
// does not depend on k). (3) d̂ ≥ ‖x−v‖·(1 − w·u), and summing ĥ² and
// squaring the threshold add a few u more; together with (1), squared, that
// is a relative 4·w·u + 5·10⁻¹¹ at k = 24, far inside headRel − 1 for any
// width a process can hold. Hence ĥ² over the threshold implies d̂ > limit
// strictly: a row at exactly the limit (an equal-distance twin with a lower
// ordinal), a limit of 0 (the query is a stored point) and neighbours 1e-13
// apart are never skipped. A NaN on either side makes the comparison false,
// which keeps the row; an infinite coordinate makes R, and with it the
// threshold, infinite.
//
// Boxes rest on one more fact, monotonicity. A node's box holds, per
// first-stage direction, the least and the greatest head coordinate among
// its rows, so lo ≤ p ≤ hi holds exactly for every row p under it. The gap
// from the query to the box in that direction (q − hi, lo − q, or 0) is then,
// in exact arithmetic, no larger than |q − p|; rounding is monotone, so the
// computed gap is no larger than the computed |q − p|, nor its rounded square
// than that one's, nor a sum of such squares taken in the same order (the
// float64 conversions in the two loops forbid a fused multiply-add, which
// would round one sum differently from the other). The box sum therefore
// never exceeds the head sum of any row in the box, the limit a node is
// tested against is the loosest its rows compete against, and a node is
// skipped only when beyond would have skipped each of its rows. A NaN head
// coordinate widens its box to ±Inf in that direction, and a NaN query
// coordinate reads a gap of 0.
const (
	headSlack = 16 * 0x1p-52
	headRel   = 1 + 1e-9
)

// headBasis is a fitted set of up to headAllDirs orthonormal directions over
// rows of a given width, stored in blocks of eight, each coordinate-major
// (dirs[(b*width+d)*8+j] is coordinate d of direction 8b+j), so one pass over
// a vector feeds eight independent accumulators. A direction the sample did
// not span is left zero: it adds nothing to a sum, and a lower bound stays
// one.
type headBasis struct {
	dirs  []float64
	width int
}

// project writes x's coordinates in directions [from, to) of the basis, both
// multiples of eight, to out. Coordinates of x past the basis width are left
// out of the projection: dropping terms only lowers a lower bound.
func (b *headBasis) project(x []float64, from, to int, out []float64) {
	if len(x) > b.width {
		x = x[:b.width]
	}
	for at := from; at < to; at += 8 {
		dirs := b.dirs[at*b.width : (at+8)*b.width]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for d, v := range x {
			r := dirs[d*8 : d*8+8 : d*8+8]
			a0 += v * r[0]
			a1 += v * r[1]
			a2 += v * r[2]
			a3 += v * r[3]
			a4 += v * r[4]
			a5 += v * r[5]
			a6 += v * r[6]
			a7 += v * r[7]
		}
		o := out[at-from : at-from+8 : at-from+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// fitHeadBasis fits up to headAllDirs principal directions to m packed rows
// (w floats each): deterministic power iteration on their covariance, which
// is deflated by each direction found so the next one comes out orthogonal to
// it. Every direction is checked against the ones before it as it is added,
// and the fit stops at the first that fails or when the rows' spread is used
// up. It returns nil — no head — when fewer than headDirs directions stand.
func fitHeadBasis(xs []float64, m, w int) *headBasis {
	mean := make([]float64, w)
	for i := 0; i < m; i++ {
		for d, v := range xs[i*w : (i+1)*w] {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(m)
	}
	// cov is the rows' scatter matrix (covariance up to a factor): the upper
	// triangle is summed, then mirrored.
	cov := make([]float64, w*w)
	c := make([]float64, w)
	for i := 0; i < m; i++ {
		for d, v := range xs[i*w : (i+1)*w] {
			c[d] = v - mean[d]
		}
		for a, ca := range c {
			if ca == 0 {
				continue // a metric the sample never saw move
			}
			row := cov[a*w : (a+1)*w]
			for b := a; b < w; b++ {
				row[b] += ca * c[b]
			}
		}
	}
	for a := 0; a < w; a++ {
		for b := a + 1; b < w; b++ {
			cov[b*w+a] = cov[a*w+b]
		}
	}

	dirs := make([][]float64, 0, headAllDirs)
	next := make([]float64, w)
fit:
	for len(dirs) < headAllDirs && len(dirs) < w {
		// Start on the axis holding the most spread still unexplained.
		start, most := -1, 0.0
		for d := 0; d < w; d++ {
			if left := cov[d*w+d]; left > most {
				start, most = d, left
			}
		}
		if start < 0 {
			break // the rows span no further direction
		}
		v := make([]float64, w)
		v[start] = 1
		for it := 0; it < headIters; it++ {
			matVec(cov, v, next)
			if !normalise(next) {
				break fit
			}
			v, next = next, v
		}
		// The deflated matrix maps into the complement of dirs already; this
		// only removes what rounding let back in.
		for _, p := range dirs {
			k := dot(v, p)
			for d := range v {
				v[d] -= k * p[d]
			}
		}
		if !normalise(v) || !(math.Abs(dot(v, v)-1) <= headOrthoTol) {
			break
		}
		for _, p := range dirs {
			if !(math.Abs(dot(v, p)) <= headOrthoTol) { // also rejects NaN
				break fit
			}
		}
		// Deflate: cov ← (I − vvᵀ)·cov·(I − vvᵀ), exact for any unit v.
		matVec(cov, v, next)
		vcv := dot(v, next)
		for a := 0; a < w; a++ {
			row := cov[a*w : (a+1)*w]
			for b := range row {
				row[b] += vcv*v[a]*v[b] - v[a]*next[b] - next[a]*v[b]
			}
		}
		dirs = append(dirs, v)
		next = make([]float64, w)
	}
	if len(dirs) < headDirs {
		return nil
	}
	basis := &headBasis{dirs: make([]float64, headAllDirs*w), width: w}
	for i, p := range dirs {
		for d, v := range p {
			basis.dirs[(i/8*w+d)*8+i%8] = v
		}
	}
	return basis
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// matVec writes the square matrix m times v to out.
func matVec(m, v, out []float64) {
	w := len(v)
	for a := range out {
		out[a] = dot(m[a*w:(a+1)*w], v)
	}
}

// normalise scales v to unit length; false when it has none (or is not
// finite).
func normalise(v []float64) bool {
	n := math.Sqrt(dot(v, v))
	if !(n > 0) || math.IsInf(n, 0) {
		return false
	}
	for d := range v {
		v[d] /= n
	}
	return true
}

// kdHead is a tree's head: the basis; every row's first-stage coordinates
// (proj, headDirs a row) and second-stage ones (tail, headTailDirs a row) in
// ords (leaf) order; every node's box over proj (box, the headDirs lower
// edges then the headDirs upper ones); and the largest row norm, which
// scales the skip slack.
type kdHead struct {
	basis   *headBasis
	proj    []float64
	tail    []float64
	box     []float64
	maxNorm float64
}

// newHead starts the head of a tree about to be built over pts[ords...],
// w wide: the basis, fitted to a stride through those rows, and each row's
// first-stage coordinates, which are what the build splits on. It returns
// nil when no basis can be fitted.
func newHead(pts []Point, ords []int, w int) *kdHead {
	m := min(len(ords), headSample)
	step := len(ords) / m
	sample := make([]float64, 0, m*w)
	for i := 0; i < m; i++ {
		x := pts[ords[i*step]].X
		if n := dot(x, x); n != n || math.IsInf(n, 0) {
			continue // never a neighbour, and it would poison the covariance
		}
		sample = append(append(sample, x...), make([]float64, w-len(x))...)
	}
	basis := fitHeadBasis(sample, len(sample)/w, w)
	if basis == nil {
		return nil
	}
	h := &kdHead{basis: basis, proj: make([]float64, len(ords)*headDirs)}
	for i, ord := range ords {
		x := pts[ord].X
		basis.project(x, 0, headDirs, h.proj[i*headDirs:])
		if norm := math.Sqrt(dot(x, x)); norm > h.maxNorm {
			h.maxNorm = norm
		}
	}
	return h
}

// finish completes the head once the build has settled the rows into leaf
// order (proj has moved with them) and packed them: the second-stage
// coordinates, and every node's box, children before parents.
func (h *kdHead) finish(t *kdtree) {
	h.tail = make([]float64, len(t.ords)*headTailDirs)
	for i := range t.ords {
		h.basis.project(t.row(int32(i)), headDirs, headAllDirs, h.tail[i*headTailDirs:])
	}
	h.box = make([]float64, len(t.nodes)*2*headDirs)
	for ni := len(t.nodes) - 1; ni >= 0; ni-- {
		n := &t.nodes[ni]
		box := h.box[ni*2*headDirs : (ni+1)*2*headDirs]
		lo, hi := box[:headDirs], box[headDirs:]
		if n.left >= 0 {
			l := h.box[int(n.left)*2*headDirs:]
			r := h.box[int(n.right)*2*headDirs:]
			for j := range lo {
				lo[j] = math.Min(l[j], r[j])
				hi[j] = math.Max(l[headDirs+j], r[headDirs+j])
			}
			continue
		}
		for j := range lo {
			lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		}
		for i := int(n.lo); i < int(n.hi); i++ {
			for j, v := range h.proj[i*headDirs : (i+1)*headDirs] {
				if v != v {
					lo[j], hi[j] = math.Inf(-1), math.Inf(1)
					continue
				}
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
	}
}

// probe is one read's query vector with its projections, one per basis met
// so far: a read may traverse the forest twice (the scoring pass, then a
// filtered re-search), and a projection is ≈2,500 flops at real width.
type probe struct {
	x     []float64
	norm  float64
	heads []projected
}

type projected struct {
	basis *headBasis
	q     [headAllDirs]float64
}

// head returns the probe's query projected for a search of h's tree.
func (pr *probe) head(h *kdHead) (hq headQuery) {
	at := 0
	for at < len(pr.heads) && pr.heads[at].basis != h.basis {
		at++
	}
	if at == len(pr.heads) {
		if at == 0 {
			pr.norm = math.Sqrt(dot(pr.x, pr.x))
		}
		pr.heads = append(pr.heads, projected{basis: h.basis})
		h.basis.project(pr.x, 0, headAllDirs, pr.heads[at].q[:])
	}
	hq.q = pr.heads[at].q
	hq.slack = headSlack * float64(h.basis.width) * (pr.norm + h.maxNorm)
	return hq
}

// headQuery is a query projected for one tree.
type headQuery struct {
	q     [headAllDirs]float64
	slack float64
}

// sumSq8 adds eight squares pairwise rather than front to back: three
// dependent additions instead of eight, on the hottest lines of a headed
// read. Rows and boxes both sum through it, which is the "same order" the
// monotonicity argument needs; every product is rounded on its own.
func sumSq8(d0, d1, d2, d3, d4, d5, d6, d7 float64) float64 {
	return ((float64(d0*d0) + float64(d1*d1)) + (float64(d2*d2) + float64(d3*d3))) +
		((float64(d4*d4) + float64(d5*d5)) + (float64(d6*d6) + float64(d7*d7)))
}

// over returns what a head sum must exceed to prove a distance beyond limit.
func (hq *headQuery) over(limit float64) float64 {
	l := limit + hq.slack
	return l * l * headRel
}

// rowSum returns row i's squared head distance from the query over the first
// stage; tailSum returns what the second stage adds to it.
func (h *kdHead) rowSum(i int32, hq *headQuery) float64 {
	q := &hq.q
	p := h.proj[int(i)*headDirs : (int(i)+1)*headDirs : (int(i)+1)*headDirs]
	return sumSq8(q[0]-p[0], q[1]-p[1], q[2]-p[2], q[3]-p[3], q[4]-p[4], q[5]-p[5], q[6]-p[6], q[7]-p[7])
}

func (h *kdHead) tailSum(i int32, hq *headQuery) float64 {
	q := &hq.q
	p := h.tail[int(i)*headTailDirs : (int(i)+1)*headTailDirs : (int(i)+1)*headTailDirs]
	return sumSq8(q[8]-p[0], q[9]-p[1], q[10]-p[2], q[11]-p[3], q[12]-p[4], q[13]-p[5], q[14]-p[6], q[15]-p[7]) +
		sumSq8(q[16]-p[8], q[17]-p[9], q[18]-p[10], q[19]-p[11], q[20]-p[12], q[21]-p[13], q[22]-p[14], q[23]-p[15])
}

// boxSum returns the squared first-stage distance from the query to node
// ni's box: per direction the gap to the nearer edge, 0 inside.
func (h *kdHead) boxSum(ni int32, hq *headQuery) float64 {
	box := h.box[int(ni)*2*headDirs : (int(ni)+1)*2*headDirs : (int(ni)+1)*2*headDirs]
	q := &hq.q
	gap := func(j int) float64 { return max(box[j]-q[j], q[j]-box[headDirs+j], 0) }
	return sumSq8(gap(0), gap(1), gap(2), gap(3), gap(4), gap(5), gap(6), gap(7))
}

// beyond reports whether row i's head distance — over the first stage, then
// over both — alone proves its distance from the query exceeds limit (see
// the skip test above).
func (h *kdHead) beyond(i int32, hq *headQuery, limit float64) bool {
	over := hq.over(limit)
	s := h.rowSum(i, hq)
	return s > over || s+h.tailSum(i, hq) > over
}

// boxBeyond reports whether node ni's box alone proves every row under it
// lies farther from the query than limit, the loosest bound any of them
// competes against: the box's sum never exceeds a contained row's (see the
// monotonicity argument above).
func (h *kdHead) boxBeyond(ni int32, hq *headQuery, limit float64) bool {
	return h.boxSum(ni, hq) > hq.over(limit)
}
