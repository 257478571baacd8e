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

// Name returns the name of column i.
func (s *Schema) Name(i int) string { return s.names[i] }

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

// Series is an append-only multidimensional time series: one row of float64
// values per tick, all rows conforming to the same schema.
//
// Rows are stored in one flat backing array in row-major order. Appending a
// row therefore costs a single amortized slice append instead of a fresh
// per-row allocation, and whole-window scans (means, stddevs) walk memory
// linearly. Views returned by Tail share the backing and remain
// valid — rows are immutable once appended — even if a later Append grows
// the parent's backing elsewhere.
type Series struct {
	schema *Schema
	times  []int64
	flat   []float64 // len == len(times) * schema.Len()
}

// NewSeries creates an empty series over the schema.
func NewSeries(schema *Schema) *Series {
	return &Series{schema: schema}
}

// Schema returns the series schema.
func (t *Series) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Series) Len() int { return len(t.times) }

// Append adds a row observed at tick now. The row is copied, so callers may
// reuse their buffer. Rows of the wrong width are rejected with a panic.
func (t *Series) Append(now int64, row []float64) {
	if len(row) != t.schema.Len() {
		panic(fmt.Sprintf("metrics: row width %d != schema width %d", len(row), t.schema.Len()))
	}
	t.times = append(t.times, now)
	t.flat = append(t.flat, row...)
}

// Row returns the i-th row. The returned slice must not be modified.
func (t *Series) Row(i int) []float64 {
	w := t.schema.Len()
	return t.flat[i*w : (i+1)*w : (i+1)*w]
}

// Time returns the tick of the i-th row.
func (t *Series) Time(i int) int64 { return t.times[i] }

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
	w := t.schema.Len()
	out := make([]float64, len(t.times))
	for r := range out {
		out[r] = t.flat[r*w+i]
	}
	return out
}

// Tail returns a view of the last n rows (fewer if the series is shorter).
// The view shares storage with the parent and must be treated as read-only.
func (t *Series) Tail(n int) *Series {
	if n > len(t.times) {
		n = len(t.times)
	}
	start := len(t.times) - n
	w := t.schema.Len()
	return &Series{schema: t.schema, times: t.times[start:], flat: t.flat[start*w:]}
}

// Reserve grows the backing arrays to hold at least rows rows without
// further allocation. Long-running loops that know their retention bound
// (harnesses trim at 2× history) reserve it up front, so the flat backing
// never crawls through the allocator's growth steps — each of which copies
// the whole multi-megabyte array.
func (t *Series) Reserve(rows int) {
	if rows <= cap(t.times) {
		return
	}
	w := t.schema.Len()
	times := make([]int64, len(t.times), rows)
	copy(times, t.times)
	flat := make([]float64, len(t.flat), rows*w)
	copy(flat, t.flat)
	t.times = times
	t.flat = flat
}

// TrimFront drops all but the last keep rows, bounding memory during long
// campaigns. It reallocates — never shifts in place — so retained views of
// the old rows stay intact and the dropped prefix can be collected. The new
// backing reserves room to grow back to the pre-trim length, so a
// steady-state trim cycle costs one allocation per cycle rather than a
// cascade of growth steps.
func (t *Series) TrimFront(keep int) {
	n := len(t.times)
	if n <= keep {
		return
	}
	start := n - keep
	w := t.schema.Len()
	times := make([]int64, keep, n)
	copy(times, t.times[start:])
	flat := make([]float64, keep*w, n*w)
	copy(flat, t.flat[start*w:])
	t.times = times
	t.flat = flat
}

// ColMeans returns per-column means over all rows.
func (t *Series) ColMeans() []float64 {
	w := t.schema.Len()
	out := make([]float64, w)
	n := len(t.times)
	if n == 0 {
		return out
	}
	for r := 0; r < n; r++ {
		row := t.flat[r*w : (r+1)*w]
		for i, v := range row {
			out[i] += v
		}
	}
	inv := 1 / float64(n)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// ColStddevs returns per-column population standard deviations.
func (t *Series) ColStddevs() []float64 {
	w := t.schema.Len()
	means := t.ColMeans()
	out := make([]float64, w)
	n := len(t.times)
	if n < 2 {
		return out
	}
	for r := 0; r < n; r++ {
		row := t.flat[r*w : (r+1)*w]
		for i, v := range row {
			d := v - means[i]
			out[i] += d * d
		}
	}
	inv := 1 / float64(n)
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

// NamePart returns the i-th segment of a structured metric name, or ""
// when the name has fewer segments.
func NamePart(name string, i int) string {
	parts := strings.Split(name, ".")
	if i < 0 || i >= len(parts) {
		return ""
	}
	return parts[i]
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
