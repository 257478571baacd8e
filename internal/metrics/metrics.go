// Package metrics implements the multidimensional time-series data model of
// the paper's §4.2: "the data collected from the service is a
// multidimensional row-and-column time-series with schema X1, X2, ..., Xn",
// where the attributes are performance or failure metrics measured from the
// tiers of the service or derived from measured metrics.
//
// Metric names are structured as dot-separated paths
// ("app.ejb.ItemBean.calls", "db.table.items.lockwait") so the
// diagnosis-based approaches can map an implicated attribute back to the
// service structure it describes — the step Examples 2–4 in the paper take
// when turning a diagnosed attribute into a fix.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Schema names the columns of a time series. It is immutable after
// construction and shared between series, samples and feature vectors.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from the given column names. Duplicate names
// are rejected with a panic, since a schema with ambiguous columns is a
// programming error that would silently corrupt every downstream analysis.
func NewSchema(names []string) *Schema {
	s := &Schema{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range s.names {
		if _, dup := s.index[n]; dup {
			panic(fmt.Sprintf("metrics: duplicate column %q", n))
		}
		s.index[n] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.names) }

// Names returns the column names. The returned slice must not be modified.
func (s *Schema) Names() []string { return s.names }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named column, panicking if absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown column %q", name))
	}
	return i
}

// blockRows is the number of rows one storage block holds. A window of n rows
// spans at most n/blockRows+2 blocks, and a view pins every block it covers,
// so small blocks waste little past a window's edges: at the auction target's
// 104 columns a block is 53 KB, and the 15-row window a FixSym harness keeps
// spans at most two of them.
const blockRows = 64

// block is one fixed-size run of consecutive rows. A block a view has
// covered is never rewritten, so it may be shared by any number of series.
type block struct {
	times [blockRows]int64
	flat  []float64 // blockRows rows of schema.Len() values, row-major
	// viewed is set once a Tail view covers the block: its rows are then
	// immutable, and TrimFront lets the block go instead of reusing it.
	viewed bool
}

// Series is an append-only multidimensional time series: one row of float64
// values per tick, all rows conforming to the same schema.
//
// Rows are stored in fixed-size blocks. Append fills the last block and
// starts a new one when it is full; no row is ever moved. TrimFront advances
// the first-row offset and drops the blocks wholly before it, so a sliding
// window costs the same per tick however long it has been sliding. A
// dropped block that no view ever covered goes on the series' free list,
// and Append refills it before allocating: a window that slides with no
// view taken allocates nothing once warm. A view returned by Tail marks the
// blocks it covers, which are then never reused, so the view stays valid
// whatever its parent appends or trims later. Whole-window scans (means,
// stddevs) walk the rows oldest first.
type Series struct {
	schema *Schema
	blocks []*block
	off    int // rows of blocks[0] that precede row 0
	n      int
	free   []*block // dropped blocks no view covers, for Append to refill
}

// NewSeries creates an empty series over the schema.
func NewSeries(schema *Schema) *Series { return &Series{schema: schema} }

// Schema returns the series schema.
func (t *Series) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Series) Len() int { return t.n }

// Append adds a row observed at tick now. The row is copied, so callers may
// reuse their buffer. Rows of the wrong width are rejected with a panic.
func (t *Series) Append(now int64, row []float64) {
	w := t.schema.Len()
	if len(row) != w {
		panic(fmt.Sprintf("metrics: row width %d != schema width %d", len(row), w))
	}
	j := t.off + t.n
	if j == len(t.blocks)*blockRows {
		t.blocks = append(t.blocks, t.newBlock())
	}
	b, r := t.blocks[j/blockRows], j%blockRows
	b.times[r] = now
	copy(b.flat[r*w:(r+1)*w], row)
	t.n++
}

// newBlock takes the last block off the free list, or allocates one when
// the list is empty. A refilled block's old rows are never read: Append
// overwrites each row before Len counts it.
func (t *Series) newBlock() *block {
	k := len(t.free) - 1
	if k < 0 {
		return &block{flat: make([]float64, blockRows*t.schema.Len())}
	}
	b := t.free[k]
	t.free[k] = nil
	t.free = t.free[:k]
	return b
}

// Row returns the i-th row. The returned slice must not be modified, and it
// shares the series' storage: once TrimFront has dropped the row, Append
// may refill its block with newer rows. Read it before the series is next
// trimmed, or read it through a Tail view, whose rows never change.
func (t *Series) Row(i int) []float64 {
	w := t.schema.Len()
	j := t.off + i
	r := j % blockRows
	return t.blocks[j/blockRows].flat[r*w : (r+1)*w : (r+1)*w]
}

// Time returns the tick of the i-th row.
func (t *Series) Time(i int) int64 {
	j := t.off + i
	return t.blocks[j/blockRows].times[j%blockRows]
}

// Col extracts a full column by name; unknown names yield nil.
func (t *Series) Col(name string) []float64 {
	i, ok := t.schema.Index(name)
	if !ok {
		return nil
	}
	return t.ColIdx(i)
}

// ColIdx extracts a full column by index.
func (t *Series) ColIdx(i int) []float64 {
	out := make([]float64, 0, t.n)
	t.eachRow(func(row []float64) { out = append(out, row[i]) })
	return out
}

// eachRow calls f on every row, oldest first.
func (t *Series) eachRow(f func(row []float64)) {
	w := t.schema.Len()
	lo, left := t.off, t.n
	for _, b := range t.blocks {
		hi := min(lo+left, blockRows)
		for r := lo; r < hi; r++ {
			f(b.flat[r*w : (r+1)*w])
		}
		left -= hi - lo
		lo = 0
	}
}

// Tail returns a view of the last n rows (fewer if the series is shorter).
// The view shares the blocks it covers with the parent and must be treated
// as read-only. Those blocks are marked viewed, so the parent never reuses
// them: the view reads the same rows for as long as it lives.
func (t *Series) Tail(n int) *Series {
	if n > t.n {
		n = t.n
	}
	start := t.off + t.n - n
	covered := t.blocks[start/blockRows:]
	for _, b := range covered {
		// Only a block no view covers yet is written to, so a view's own
		// Tail, which may run on another goroutine, writes nothing.
		if !b.viewed {
			b.viewed = true
		}
	}
	return &Series{
		schema: t.schema,
		blocks: append([]*block(nil), covered...),
		off:    start % blockRows,
		n:      n,
	}
}

// TailCopy returns an owned copy of the last n rows (fewer if the series
// is shorter), their values in one allocation sized to them. It shares no
// block with the parent, so unlike a Tail view it lets the parent reuse
// every block the rows came from. The copy must be treated as read-only.
func (t *Series) TailCopy(n int) *Series {
	n = min(n, t.n)
	w := t.schema.Len()
	flat := make([]float64, n*w)
	c := &Series{schema: t.schema, n: n}
	for lo := 0; lo < n; lo += blockRows {
		hi := min(lo+blockRows, n)
		// A copied block is marked viewed: its flat is only as long as the
		// rows it holds, so it must never be refilled.
		b := &block{flat: flat[lo*w : hi*w : hi*w], viewed: true}
		for i := lo; i < hi; i++ {
			b.times[i-lo] = t.Time(t.n - n + i)
			copy(b.flat[(i-lo)*w:], t.Row(t.n-n+i))
		}
		c.blocks = append(c.blocks, b)
	}
	return c
}

// TrimFront drops all but the last keep rows, bounding memory during long
// campaigns. No row is copied: the blocks now wholly before the first row
// leave the block list, and each one no view covers goes on the free list
// for Append to refill.
func (t *Series) TrimFront(keep int) {
	if t.n <= keep {
		return
	}
	t.off += t.n - keep
	t.n = keep
	d := t.off / blockRows
	if d == 0 {
		return
	}
	for _, b := range t.blocks[:d] {
		if !b.viewed {
			t.free = append(t.free, b)
		}
	}
	// Shift rather than re-slice, so the block list keeps its capacity and
	// Append does not reallocate it every few blocks.
	n := copy(t.blocks, t.blocks[d:])
	clear(t.blocks[n:])
	t.blocks = t.blocks[:n]
	t.off -= d * blockRows
}

// ColMeans returns per-column means over all rows.
func (t *Series) ColMeans() []float64 {
	out := make([]float64, t.schema.Len())
	if t.n == 0 {
		return out
	}
	t.eachRow(func(row []float64) {
		for i, v := range row {
			out[i] += v
		}
	})
	inv := 1 / float64(t.n)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// ColStddevs returns per-column population standard deviations.
func (t *Series) ColStddevs() []float64 {
	means := t.ColMeans()
	out := make([]float64, t.schema.Len())
	if t.n < 2 {
		return out
	}
	t.eachRow(func(row []float64) {
		for i, v := range row {
			d := v - means[i]
			out[i] += d * d
		}
	})
	inv := 1 / float64(t.n)
	for i := range out {
		out[i] = sqrt(out[i] * inv)
	}
	return out
}

// Source is implemented by anything that contributes metrics each tick —
// the tiers of the simulated service, the SLO monitor, and derived-metric
// operators all implement it.
type Source interface {
	// MetricNames returns the names this source contributes. The result
	// must be stable across the lifetime of the source.
	MetricNames() []string
	// ReadMetrics writes current values into dst, one per name, in the
	// same order as MetricNames.
	ReadMetrics(dst []float64)
}

// Collector polls a set of sources each tick and appends the combined row
// to a single series with a merged schema.
type Collector struct {
	sources []Source
	offsets []int
	series  *Series
	buf     []float64
}

// NewCollector builds a collector over the given sources.
func NewCollector(sources ...Source) *Collector {
	var names []string
	offsets := make([]int, len(sources))
	for i, src := range sources {
		offsets[i] = len(names)
		names = append(names, src.MetricNames()...)
	}
	schema := NewSchema(names)
	return &Collector{
		sources: sources,
		offsets: offsets,
		series:  NewSeries(schema),
		buf:     make([]float64, schema.Len()),
	}
}

// Schema returns the merged schema.
func (c *Collector) Schema() *Schema { return c.series.Schema() }

// Series returns the collected series.
func (c *Collector) Series() *Series { return c.series }

// Collect polls every source and appends one row at tick now.
func (c *Collector) Collect(now int64) {
	for i, src := range c.sources {
		end := len(c.buf)
		if i+1 < len(c.sources) {
			end = c.offsets[i+1]
		}
		src.ReadMetrics(c.buf[c.offsets[i]:end])
	}
	c.series.Append(now, c.buf)
}

// ParseName splits a structured metric name into its path segments.
func ParseName(name string) []string { return strings.Split(name, ".") }

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
