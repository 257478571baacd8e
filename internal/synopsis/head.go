package synopsis

import "math"

// Projected lower-bound heads.
//
// KD nodes prune on one coordinate at a time, and at the width real symptom
// vectors have (≈100) one coordinate's gap is never a useful share of a
// distance: every leaf is visited and every row scanned. What does prune at
// that width is a lower bound on the whole distance that is cheap to read.
// For any orthonormal directions b_1..b_k,
//
//	Σ_j (b_j·(x−v))²  ≤  ‖x−v‖²,
//
// so a tree keeps, beside its packed rows, each row's coordinates in a few
// fitted directions (its head: headDirs floats, one cache line), projects the
// query once, and skips a row whose head distance alone already puts it past
// the bound that row competes against. Rows that survive go through the same
// euclideanUnder on the same packed floats as before, so every accepted
// distance — and with it the (distance, ordinal) winner — is unchanged.

const (
	// headDirs is the number of directions a head keeps: 8 float64 are one
	// cache line per row. Swept over {4, 8, 12, 16} on the 20,000-point
	// real-width knowledge base (PERFORMANCE.md): 8 reads fastest; 12 and 16
	// skip more rows but cost more per row than they save.
	headDirs = 8
	// headMinRows is the smallest tree that keeps a head. A fit costs a few
	// million flops on the write path; below this a tree is rebuilt by the
	// forest's carries too often, and scanned too cheaply, to earn it back.
	headMinRows = 512
	// headSample bounds the rows a fit looks at (a stride through the tree's
	// leaf order, which is spatially sorted, so the sample is stratified).
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
// here; a row is skipped only when
//
//	ĥ² > (limit + slack)² · headRel,   slack = headSlack·w·(‖x‖ + R),
//
// with w the row width and R the largest row norm in the tree. Write u =
// 2⁻⁵³. (1) The basis is orthonormal to headOrthoTol, so in exact arithmetic
// ‖B(x−v)‖ ≤ (1 + k·headOrthoTol)·‖x−v‖. (2) Each stored or query head
// coordinate is a w-term dot product with a unit vector, off by at most
// ≈w·u·‖v‖, so the computed head vector differs from B(x−v) by at most
// √k·w·u·(‖x‖+R) in norm: under headSlack·w·(‖x‖+R) with a factor of five
// to spare for k = 8. (3) d̂ ≥ ‖x−v‖·(1 − w·u), and summing ĥ² and squaring
// the threshold add a few u more; together with (1) that is a relative
// 4·w·u + 10⁻¹¹, far inside headRel − 1 for any width a process can hold.
// Hence ĥ² over the threshold implies d̂ > limit strictly: a row at exactly
// the limit (an equal-distance twin with a lower ordinal), a limit of 0
// (the query is a stored point) and neighbours 1e-13 apart are never
// skipped. A NaN on either side makes the comparison false, which keeps
// the row; an infinite coordinate makes R, and with it the threshold,
// infinite.
const (
	headSlack = 16 * 0x1p-52
	headRel   = 1 + 1e-9
)

// headBasis is a fitted set of headDirs orthonormal directions over rows
// of a given width, stored coordinate-major (dirs[d*headDirs+j] is
// coordinate d of direction j) so one pass over a vector feeds headDirs
// independent accumulators.
type headBasis struct {
	dirs  []float64
	width int
}

// project writes x's coordinates in the basis to out and returns ‖x‖.
// Coordinates of x past the basis width are left out of the projection —
// dropping terms only lowers a lower bound — but not out of the norm.
func (b *headBasis) project(x []float64, out *[headDirs]float64) float64 {
	var acc [headDirs]float64
	n := len(x)
	if n > b.width {
		n = b.width
	}
	for d, v := range x[:n] {
		row := b.dirs[d*headDirs : (d+1)*headDirs]
		for j := range acc {
			acc[j] += v * row[j]
		}
	}
	*out = acc
	return math.Sqrt(dot(x, x))
}

// fitHeadBasis fits headDirs principal directions to a strided sample of
// the n packed rows in xs (stride floats each): deterministic power
// iteration on the sample's covariance, which is deflated by each direction
// found so the next one comes out orthogonal to it. It returns nil — no
// head — when the sample does not span headDirs directions or the result
// fails the orthonormality check.
func fitHeadBasis(xs []float64, n, stride int) *headBasis {
	w := stride
	m := n
	if m > headSample {
		m = headSample
	}
	step := n / m
	mean := make([]float64, w)
	for i := 0; i < m; i++ {
		for d, v := range xs[i*step*w : (i*step+1)*w] {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(m)
	}
	// cov is the sample's scatter matrix (covariance up to a factor): the
	// upper triangle is summed, then mirrored.
	cov := make([]float64, w*w)
	c := make([]float64, w)
	for i := 0; i < m; i++ {
		for d, v := range xs[i*step*w : (i*step+1)*w] {
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

	dirs := make([][]float64, 0, headDirs)
	next := make([]float64, w)
	for len(dirs) < headDirs {
		// Start on the axis holding the most spread still unexplained.
		start, most := -1, 0.0
		for d := 0; d < w; d++ {
			if left := cov[d*w+d]; left > most {
				start, most = d, left
			}
		}
		if start < 0 {
			return nil // the sample spans fewer than headDirs directions
		}
		v := make([]float64, w)
		v[start] = 1
		for it := 0; it < headIters; it++ {
			matVec(cov, v, next)
			if !normalise(next) {
				return nil
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
		if !normalise(v) {
			return nil
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

	basis := &headBasis{dirs: make([]float64, w*headDirs), width: w}
	for i, p := range dirs {
		for j, q := range dirs[:i+1] {
			want := 0.0
			if i == j {
				want = 1
			}
			if !(math.Abs(dot(p, q)-want) <= headOrthoTol) { // also rejects NaN
				return nil
			}
		}
		for d, v := range p {
			basis.dirs[d*headDirs+i] = v
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

// kdHead is a tree's head: the basis, every row's projection in ords
// (leaf) order, and the largest row norm, which scales the skip slack.
type kdHead struct {
	basis   *headBasis
	proj    []float64
	maxNorm float64
}

// newHead projects the tree's packed rows onto basis.
func newHead(basis *headBasis, xs []float64, n, stride int) *kdHead {
	h := &kdHead{basis: basis, proj: make([]float64, n*headDirs)}
	for i := 0; i < n; i++ {
		norm := basis.project(xs[i*stride:(i+1)*stride], (*[headDirs]float64)(h.proj[i*headDirs:]))
		if norm > h.maxNorm {
			h.maxNorm = norm
		}
	}
	return h
}

// headQuery is a query projected for one tree.
type headQuery struct {
	q     [headDirs]float64
	slack float64
}

// query projects x once for a search of this tree.
func (h *kdHead) query(x []float64) (hq headQuery) {
	norm := h.basis.project(x, &hq.q)
	hq.slack = headSlack * float64(h.basis.width) * (norm + h.maxNorm)
	return hq
}

// beyond reports whether row i's head distance alone proves its distance
// from the query exceeds limit (see the skip test above).
func (h *kdHead) beyond(i int32, hq *headQuery, limit float64) bool {
	p := h.proj[int(i)*headDirs : (int(i)+1)*headDirs]
	s := 0.0
	for j, q := range hq.q {
		d := q - p[j]
		s += d * d
	}
	l := limit + hq.slack
	return s > l*l*headRel
}
