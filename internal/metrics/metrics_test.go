package metrics

import "testing"

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
	if s.Name(2) != "d" {
		t.Errorf("name %q", s.Name(2))
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
	if NamePart("a.b", 1) != "b" || NamePart("a.b", 5) != "" || NamePart("a.b", -1) != "" {
		t.Error("NamePart wrong")
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
