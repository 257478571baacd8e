package detect

import (
	"reflect"
	"testing"

	"selfheal/internal/metrics"
)

func healthyTick() Sample {
	return Sample{Arrivals: 150, Errors: 1, AvgLatencyMS: 90, SLOViolations: 1}
}

func slowTick() Sample {
	return Sample{Arrivals: 150, AvgLatencyMS: 600, SLOViolations: 150}
}

func TestSLOViolationConditions(t *testing.T) {
	slo := DefaultSLO()
	if slo.Violated(healthyTick()) {
		t.Error("healthy tick violated")
	}
	if !slo.Violated(slowTick()) {
		t.Error("slow tick not violated")
	}
	errTick := healthyTick()
	errTick.Errors = 10
	if !slo.Violated(errTick) {
		t.Error("6% error rate not violated")
	}
	down := Sample{Down: true}
	if !slo.Violated(down) {
		t.Error("outage not violated")
	}
	idle := Sample{Arrivals: 0}
	if slo.Violated(idle) {
		t.Error("idle tick violated")
	}
	// Minority-class violations: average fine, violation share high.
	minority := healthyTick()
	minority.SLOViolations = 20
	if !slo.Violated(minority) {
		t.Error("13% violation share not flagged")
	}
}

func TestMonitorHysteresis(t *testing.T) {
	m := NewMonitor(DefaultSLO(), 3, 5)
	for i := 0; i < 5; i++ {
		m.Observe(healthyTick())
	}
	if m.Failing() {
		t.Fatal("healthy window failing")
	}
	m.Observe(slowTick())
	m.Observe(slowTick())
	if m.Failing() {
		t.Fatal("2 of 5 violations should not trigger K=3")
	}
	m.Observe(slowTick())
	if !m.Failing() {
		t.Fatal("3 of 5 violations should trigger")
	}
	// Recovery needs a full clean window.
	m.Observe(healthyTick())
	if m.Recovered() {
		t.Fatal("recovered after one clean tick")
	}
	for i := 0; i < 5; i++ {
		m.Observe(healthyTick())
	}
	if !m.Recovered() {
		t.Fatal("not recovered after clean window")
	}
	if m.Failing() {
		t.Fatal("still failing after recovery")
	}
}

func TestMonitorParamClamping(t *testing.T) {
	m := NewMonitor(DefaultSLO(), 0, 0)
	if m.K != 1 || m.N != 1 {
		t.Errorf("clamped to K=%d N=%d", m.K, m.N)
	}
	m = NewMonitor(DefaultSLO(), 9, 5)
	if m.K != 5 {
		t.Errorf("K>N not clamped: %d", m.K)
	}
}

func TestCallMatrixDetectorFindsShift(t *testing.T) {
	const rows, cols = 4, 3
	d := NewCallMatrixDetector(rows, cols)
	// Row 2 never calls anything: it is outside the support.
	cells := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {3, 0}, {3, 1}, {3, 2}}
	base := []float64{
		50, 30, 20,
		10, 80, 10,
		40, 40, 20,
	}
	for i := 0; i < 60; i++ {
		d.AccumulateBaselineCells(cells, base)
	}
	// Same distribution: no anomaly.
	for i := 0; i < 10; i++ {
		d.AccumulateCurrentCells(cells, base)
	}
	if as := d.AnomalousCallees(); len(as) != 0 {
		t.Fatalf("false positive on identical distribution: %v", as)
	}
	// Row 0's split shifts hard toward column 2.
	d.ResetCurrent()
	shifted := []float64{
		10, 10, 80,
		10, 80, 10,
		40, 40, 20,
	}
	for i := 0; i < 10; i++ {
		d.AccumulateCurrentCells(cells, shifted)
	}
	as := d.AnomalousCallees()
	if len(as) == 0 {
		t.Fatal("shift not detected")
	}
	if as[0].Col != 2 {
		t.Errorf("top anomaly col %d, want 2 (scores %v)", as[0].Col, as)
	}
}

func TestCallMatrixDetectorEmptyWindows(t *testing.T) {
	d := NewCallMatrixDetector(2, 2)
	if as := d.AnomalousCallees(); as != nil {
		t.Error("anomalies without data")
	}
	d.AccumulateBaselineCells([][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}, []float64{1, 1, 1, 1})
	if as := d.AnomalousCallees(); as != nil {
		t.Error("anomalies without a current window")
	}
}

func TestSymptomBuilder(t *testing.T) {
	schema := metrics.NewSchema([]string{"m1", "m2"})
	base := metrics.NewSeries(schema)
	for i := 0; i < 50; i++ {
		base.Append(int64(i), []float64{100 + float64(i%3), 10})
	}
	b := NewSymptomBuilder(metrics.NewBaseline(base))
	cur := metrics.NewSeries(schema)
	cur.Append(50, []float64{200, 10})
	v, kb := b.Vectors(cur)
	if len(v) != 2 {
		t.Fatalf("vector width %d", len(v))
	}
	if v[0] <= 3 {
		t.Errorf("elevated metric z=%v too small", v[0])
	}
	if v[1] > 1 || v[1] < -1 {
		t.Errorf("unchanged metric z=%v", v[1])
	}
	// Without a space the aligned vector is the positional one, in a
	// slice of its own.
	if !reflect.DeepEqual(kb, v) {
		t.Fatalf("aligned %v, want the positional %v", kb, v)
	}
	kb[0] = 0
	if v[0] <= 3 {
		t.Error("writing the aligned vector moved the positional one")
	}
}

func TestSymptomSpaceAssignsByName(t *testing.T) {
	space := NewSymptomSpace()
	a := space.Indices([]string{"svc.x", "a.only", "svc.y"})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(a, want) {
		t.Fatalf("first schema got %v, want identity %v", a, want)
	}
	b := space.Indices([]string{"svc.y", "b.only", "svc.x"})
	if b[0] != a[2] || b[2] != a[0] {
		t.Errorf("shared names not aligned: first %v, second %v", a, b)
	}
	if b[1] != 3 {
		t.Errorf("new name got dimension %d, want 3", b[1])
	}
	// Re-registering is stable.
	if again := space.Indices([]string{"svc.x", "a.only", "svc.y"}); !reflect.DeepEqual(again, a) {
		t.Errorf("re-registration moved dimensions: %v vs %v", again, a)
	}
}

func TestAlignedSymptomBuildersShareDimensions(t *testing.T) {
	space := NewSymptomSpace()
	mkSeries := func(names []string, val float64) (*metrics.Series, *metrics.Series) {
		schema := metrics.NewSchema(names)
		base := metrics.NewSeries(schema)
		for i := 0; i < 50; i++ {
			row := make([]float64, len(names))
			for j := range row {
				row[j] = 10 + float64(i%3)
			}
			base.Append(int64(i), row)
		}
		cur := metrics.NewSeries(schema)
		row := make([]float64, len(names))
		for j := range row {
			row[j] = 10
		}
		row[0] = val
		cur.Append(50, row)
		return base, cur
	}

	// Target A registers first: identity layout.
	aNames := []string{"svc.errors", "a.only"}
	aBase, aCur := mkSeries(aNames, 100)
	aB := NewAlignedSymptomBuilder(metrics.NewBaseline(aBase), space, aNames)
	as, av := aB.Vectors(aCur)
	if len(av) != 2 || !reflect.DeepEqual(as, av) {
		t.Fatalf("first-registered builder gives %v aligned from %v, want the identity", av, as)
	}
	av[1] = 42
	if as[1] == 42 {
		t.Fatal("the identity mapping's aligned vector shares the positional one's array")
	}
	av[1] = as[1]

	// Target B shares svc.errors (at a different schema position) and
	// adds its own dimension.
	bNames := []string{"b.only", "svc.errors"}
	bBase, bCur := mkSeries(bNames, 0) // col 0 (b.only) dropped to 0
	bB := NewAlignedSymptomBuilder(metrics.NewBaseline(bBase), space, bNames)
	_, bv := bB.Vectors(bCur)
	if len(bv) != 3 {
		t.Fatalf("second builder width %d, want 3 (2 shared space + 1 own)", len(bv))
	}
	// svc.errors must land at the same dimension (0) for both targets.
	bCur2 := metrics.NewSeries(metrics.NewSchema(bNames))
	bCur2.Append(51, []float64{10, 100}) // elevated svc.errors
	bs2, bv2 := bB.Vectors(bCur2)
	if bv2[0] <= 3 {
		t.Errorf("target B's elevated svc.errors z=%v not at target A's dimension", bv2[0])
	}
	if bs2[1] != bv2[0] || bs2[0] != bv2[2] {
		t.Errorf("positional %v and aligned %v disagree on target B's columns", bs2, bv2)
	}
	if av[1] > 1 || bv2[1] > 1 {
		t.Errorf("unshared dimensions leaked anomalies: a=%v b=%v", av[1], bv2[1])
	}
}
