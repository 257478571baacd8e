package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestSchema(t *testing.T) {
	s := NewSchema([]string{"a", "b.c", "d"})
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if i, ok := s.Index("b.c"); !ok || i != 1 {
		t.Errorf("index %d %v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("found missing column")
	}
	if s.Names()[2] != "d" {
		t.Errorf("names %q", s.Names())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate column did not panic")
		}
	}()
	NewSchema([]string{"x", "x"})
}

func TestSchemaMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on unknown column did not panic")
		}
	}()
	NewSchema([]string{"x"}).MustIndex("y")
}

func TestSeriesAppendAndViews(t *testing.T) {
	s := NewSeries(NewSchema([]string{"a", "b"}))
	buf := []float64{1, 2}
	s.Append(10, buf)
	buf[0] = 99 // series must have copied
	s.Append(11, []float64{3, 4})
	s.Append(12, []float64{5, 6})

	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if s.Row(0)[0] != 1 {
		t.Error("append did not copy the row")
	}
	if s.Time(2) != 12 {
		t.Errorf("time %d", s.Time(2))
	}
	if col := s.Col("b"); len(col) != 3 || col[2] != 6 {
		t.Errorf("col %v", col)
	}
	if s.Col("zzz") != nil {
		t.Error("unknown column should be nil")
	}
	tail := s.Tail(2)
	if tail.Len() != 2 || tail.Row(0)[0] != 3 {
		t.Errorf("tail wrong: %v", tail.Row(0))
	}
	if tl := s.Tail(99); tl.Len() != 3 {
		t.Errorf("oversized tail %d", tl.Len())
	}
}

func TestSeriesWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong-width row did not panic")
		}
	}()
	NewSeries(NewSchema([]string{"a"})).Append(0, []float64{1, 2})
}

func TestTrimFront(t *testing.T) {
	s := NewSeries(NewSchema([]string{"a"}))
	for i := 0; i < 10; i++ {
		s.Append(int64(i), []float64{float64(i)})
	}
	s.TrimFront(4)
	if s.Len() != 4 {
		t.Fatalf("len after trim %d", s.Len())
	}
	if s.Row(0)[0] != 6 || s.Time(0) != 6 {
		t.Errorf("trim kept wrong rows: %v t=%d", s.Row(0), s.Time(0))
	}
	s.TrimFront(99) // no-op
	if s.Len() != 4 {
		t.Error("oversized trim changed series")
	}
}

func TestColStats(t *testing.T) {
	s := NewSeries(NewSchema([]string{"a", "b"}))
	s.Append(0, []float64{1, 10})
	s.Append(1, []float64{3, 10})
	means := s.ColMeans()
	if means[0] != 2 || means[1] != 10 {
		t.Errorf("means %v", means)
	}
	stds := s.ColStddevs()
	if stds[0] != 1 || stds[1] != 0 {
		t.Errorf("stds %v", stds)
	}
}

type fakeSource struct {
	names []string
	vals  []float64
}

func (f *fakeSource) MetricNames() []string     { return f.names }
func (f *fakeSource) ReadMetrics(dst []float64) { copy(dst, f.vals) }

func TestCollectorMergesSources(t *testing.T) {
	a := &fakeSource{names: []string{"x.a", "x.b"}, vals: []float64{1, 2}}
	b := &fakeSource{names: []string{"y.c"}, vals: []float64{3}}
	c := NewCollector(a, b)
	if c.Schema().Len() != 3 {
		t.Fatalf("merged schema %d", c.Schema().Len())
	}
	c.Collect(5)
	a.vals[0] = 7
	c.Collect(6)
	s := c.Series()
	if s.Len() != 2 {
		t.Fatalf("rows %d", s.Len())
	}
	if s.Row(0)[0] != 1 || s.Row(1)[0] != 7 || s.Row(1)[2] != 3 {
		t.Errorf("rows %v %v", s.Row(0), s.Row(1))
	}
}

func TestParseName(t *testing.T) {
	parts := ParseName("db.table.items.lockms")
	if len(parts) != 4 || parts[2] != "items" {
		t.Errorf("parts %v", parts)
	}
}

func TestBaselineZScores(t *testing.T) {
	base := NewSeries(NewSchema([]string{"m"}))
	for i := 0; i < 100; i++ {
		base.Append(int64(i), []float64{10 + float64(i%2)}) // mean 10.5, std 0.5
	}
	b := NewBaseline(base)
	cur := NewSeries(base.Schema())
	for i := 0; i < 10; i++ {
		cur.Append(int64(100+i), []float64{13.5})
	}
	z := b.ZScores(cur, 8)
	want := (13.5 - 10.5) / 0.525 // floor = 0.05×10.5 = 0.525 > std 0.5
	if diff := z[0] - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("z %v want %v", z[0], want)
	}
	// Clamping.
	far := NewSeries(base.Schema())
	far.Append(0, []float64{1e6})
	if z := b.ZScores(far, 8); z[0] != 8 {
		t.Errorf("clamped z %v", z[0])
	}
}

// refSeries is the naive model the block-structured Series is checked
// against: one slice per row, trimmed by re-slicing.
type refSeries struct {
	times []int64
	rows  [][]float64
}

func (m *refSeries) tail(n int) *refSeries {
	if n > len(m.rows) {
		n = len(m.rows)
	}
	return &refSeries{times: m.times[len(m.times)-n:], rows: m.rows[len(m.rows)-n:]}
}

// colStats sums in row order, the way Series promises to.
func (m *refSeries) colStats(w int) (means, stds []float64) {
	means, stds = make([]float64, w), make([]float64, w)
	n := len(m.rows)
	if n == 0 {
		return
	}
	for _, row := range m.rows {
		for i, v := range row {
			means[i] += v
		}
	}
	inv := 1 / float64(n)
	for i := range means {
		means[i] *= inv
	}
	if n < 2 {
		return
	}
	for _, row := range m.rows {
		for i, v := range row {
			d := v - means[i]
			stds[i] += d * d
		}
	}
	for i := range stds {
		stds[i] = sqrt(stds[i] * inv)
	}
	return
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkAgainst(t *testing.T, what string, s *Series, m *refSeries) {
	t.Helper()
	w := s.Schema().Len()
	if s.Len() != len(m.rows) {
		t.Fatalf("%s: len %d, model %d", what, s.Len(), len(m.rows))
	}
	for i, row := range m.rows {
		if !sameBits(s.Row(i), row) || s.Time(i) != m.times[i] {
			t.Fatalf("%s: row %d = %v @%d, model %v @%d", what, i, s.Row(i), s.Time(i), row, m.times[i])
		}
	}
	for c := 0; c < w; c++ {
		col := s.ColIdx(c)
		if len(col) != len(m.rows) {
			t.Fatalf("%s: col %d has %d values, model %d", what, c, len(col), len(m.rows))
		}
		for i, row := range m.rows {
			if math.Float64bits(col[i]) != math.Float64bits(row[c]) {
				t.Fatalf("%s: col %d row %d = %v, model %v", what, c, i, col[i], row[c])
			}
		}
	}
	means, stds := m.colStats(w)
	if got := s.ColMeans(); !sameBits(got, means) {
		t.Fatalf("%s: means %v, model %v", what, got, means)
	}
	if got := s.ColStddevs(); !sameBits(got, stds) {
		t.Fatalf("%s: stddevs %v, model %v", what, got, stds)
	}
}

func TestSeriesMatchesNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	schema := NewSchema([]string{"a", "b", "c"})
	s, m := NewSeries(schema), &refSeries{}
	type held struct {
		view  *Series
		model *refSeries
	}
	var views []held
	row := make([]float64, schema.Len())
	now := int64(0)
	for op := 0; op < 4000; op++ {
		switch k := rng.Intn(10); {
		case k < 6: // a burst of appends, often crossing a block boundary
			for i := rng.Intn(blockRows/2) + 1; i > 0; i-- {
				for c := range row {
					row[c] = rng.NormFloat64() * 1e3
				}
				now += int64(rng.Intn(3) + 1)
				s.Append(now, row)
				m.times = append(m.times, now)
				m.rows = append(m.rows, append([]float64(nil), row...))
			}
		case k < 8:
			keep := rng.Intn(3 * blockRows)
			if rng.Intn(8) == 0 {
				keep = 0
			}
			s.TrimFront(keep)
			if len(m.rows) > keep {
				m.times, m.rows = m.times[len(m.times)-keep:], m.rows[len(m.rows)-keep:]
			}
		default:
			n := rng.Intn(2*blockRows + 2)
			v := held{s.Tail(n), m.tail(n)}
			checkAgainst(t, "fresh view", v.view, v.model)
			if len(views) < 40 {
				views = append(views, v)
			}
		}
		if op%97 == 0 {
			checkAgainst(t, "series", s, m)
		}
	}
	checkAgainst(t, "series", s, m)
	// Every view still reads the rows it was taken over, whatever was
	// appended to or trimmed from the parent since.
	for _, v := range views {
		checkAgainst(t, "old view", v.view, v.model)
	}
}

func TestTrimFrontReleasesWholeBlocks(t *testing.T) {
	s := NewSeries(NewSchema([]string{"a"}))
	const window = 3*blockRows + 17
	maxBlocks := (window+blockRows-1)/blockRows + 1
	for i := 0; i < 20*window; i++ {
		s.Append(int64(i), []float64{float64(i)})
		s.TrimFront(window)
		if len(s.blocks) > maxBlocks {
			t.Fatalf("after %d rows: %d blocks held for a %d-row window, want at most %d", i+1, len(s.blocks), window, maxBlocks)
		}
	}
	if s.Len() != window || s.Row(0)[0] != float64(20*window-window) {
		t.Fatalf("window holds %d rows starting at %v", s.Len(), s.Row(0))
	}
}
