package synopsis

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
)

// mkSnap builds a named snapshot over the given schema with points laid
// out in a private space registering exactly that schema.
func mkSnap(name string, schema []string, points ...Point) *Snapshot {
	return &Snapshot{Version: FormatV2, Synopsis: name, Symptoms: schema, Points: points}
}

func pt(x []float64, fix catalog.FixID, target string) Point {
	return Point{X: x, Action: Action{Fix: fix, Target: target}, Success: true}
}

func TestMergeUnionsSchemasAndSums(t *testing.T) {
	a := mkSnap("nearest-neighbor", []string{"svc.lat", "a.one"},
		pt([]float64{1, 2}, catalog.FixUpdateStats, "items"),
		pt([]float64{3, 4}, catalog.FixMicrorebootEJB, "ItemBean"))
	b := mkSnap("nearest-neighbor", []string{"svc.lat", "b.one"},
		pt([]float64{5, 6}, catalog.FixFailoverNode, "db"))

	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"svc.lat", "a.one", "b.one"}; !reflect.DeepEqual(m.Symptoms, want) {
		t.Fatalf("union schema %v, want %v", m.Symptoms, want)
	}
	if len(m.Points) != 3 {
		t.Fatalf("merged %d points, want 3", len(m.Points))
	}
	// b's point remapped: svc.lat stays at 0, b.one moves to dim 2.
	if want := []float64{5, 0, 6}; !reflect.DeepEqual(m.Points[2].X, want) {
		t.Fatalf("remapped point %v, want %v", m.Points[2].X, want)
	}
	// TrainingSize of a replayed merge equals the sum of the inputs.
	nn := NewNearestNeighbor()
	if err := m.Replay(nn, detect.NewSymptomSpace()); err != nil {
		t.Fatal(err)
	}
	if nn.TrainingSize() != 3 {
		t.Fatalf("replayed TrainingSize %d, want 3", nn.TrainingSize())
	}
	if m.Synopsis != "nearest-neighbor" {
		t.Errorf("common learner name lost: %q", m.Synopsis)
	}
}

func TestMergeDedupsExactDuplicates(t *testing.T) {
	// The same experience written under two layouts: a's (lat, err) vs
	// b's (err, lat). After remap both describe the identical point, so
	// the merge keeps one copy — overlapping descendants of one KB do
	// not double-weight shared history.
	a := mkSnap("nn", []string{"svc.lat", "svc.err"},
		pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	b := mkSnap("nn", []string{"svc.err", "svc.lat"},
		pt([]float64{2, 1}, catalog.FixUpdateStats, "items"),
		pt([]float64{9, 9}, catalog.FixFullRestart, ""))

	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 2 {
		t.Fatalf("merged %d points, want 2 (duplicate collapsed)", len(m.Points))
	}
	// A negative observation of the same action/coordinates is NOT a
	// duplicate of a success.
	neg := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	neg.Success = false
	c := mkSnap("nn", []string{"svc.lat", "svc.err"}, neg)
	m2, err := Merge(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Points) != 2 {
		t.Fatalf("success and failure collapsed: %d points, want 2", len(m2.Points))
	}
}

func TestMergeAssociative(t *testing.T) {
	a := mkSnap("nn", []string{"svc.lat", "a.one"},
		pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	b := mkSnap("nn", []string{"svc.lat", "b.one", "b.two"},
		pt([]float64{3, 4, 0.5}, catalog.FixMicrorebootEJB, "ItemBean"),
		// Same action and same svc.lat as a's point, but the anomaly
		// sits on b.one, a different named dimension — not a duplicate.
		pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	c := mkSnap("k-means", []string{"c.one", "svc.lat"},
		pt([]float64{7, 1}, catalog.FixFailoverNode, "db"))

	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := Merge(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Merge(b, c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Merge(a, bc)
	if err != nil {
		t.Fatal(err)
	}

	var lbuf, rbuf bytes.Buffer
	if err := left.Encode(&lbuf); err != nil {
		t.Fatal(err)
	}
	if err := right.Encode(&rbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lbuf.Bytes(), rbuf.Bytes()) {
		t.Fatalf("merge is not associative:\n(a+b)+c: %s\na+(b+c): %s", lbuf.String(), rbuf.String())
	}
	if left.Synopsis != "merged" {
		t.Errorf("mixed learner names should merge to %q, got %q", "merged", left.Synopsis)
	}
}

// TestMergeAssociativeWithTrailingZeroNames pins the schema-union edge:
// a name whose only points hold zero in it (so canonicalization trims
// it from every vector) must still survive into the union table, or
// regrouped merges disagree on the schema.
func TestMergeAssociativeWithTrailingZeroNames(t *testing.T) {
	a := mkSnap("nn", []string{"a.one", "a.tailzero"},
		pt([]float64{1, 0}, catalog.FixUpdateStats, "items"))
	b := mkSnap("nn", []string{"a.one"},
		pt([]float64{2}, catalog.FixUpdateStats, "items"))
	c := mkSnap("nn", []string{"c.one"},
		pt([]float64{5}, catalog.FixFullRestart, ""))

	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := Merge(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Merge(b, c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Merge(a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.one", "a.tailzero", "c.one"}; !reflect.DeepEqual(left.Symptoms, want) {
		t.Errorf("(a+b)+c schema %v, want %v", left.Symptoms, want)
	}
	if !reflect.DeepEqual(left.Symptoms, right.Symptoms) {
		t.Errorf("schemas disagree: (a+b)+c %v vs a+(b+c) %v", left.Symptoms, right.Symptoms)
	}
	// A snapshot with a name table but no points still contributes its
	// schema to the union.
	empty := mkSnap("nn", []string{"d.only"})
	m, err := Merge(b, empty)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.one", "d.only"}; !reflect.DeepEqual(m.Symptoms, want) {
		t.Errorf("empty snapshot's schema dropped: %v, want %v", m.Symptoms, want)
	}
}

func TestMergeRefusesMixedNamedUnnamed(t *testing.T) {
	named := mkSnap("nn", []string{"svc.lat"}, pt([]float64{1}, catalog.FixUpdateStats, "items"))
	unnamed := &Snapshot{Version: FormatV1, Synopsis: "nn",
		Points: []Point{pt([]float64{1}, catalog.FixUpdateStats, "items")}}
	if _, err := Merge(named, unnamed); err == nil {
		t.Error("merging named with unnamed snapshots accepted")
	}
	// All-unnamed merges stay positional and are allowed.
	m, err := Merge(unnamed, unnamed)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 1 || len(m.Symptoms) != 0 {
		t.Errorf("positional merge: %d points, %d names", len(m.Points), len(m.Symptoms))
	}
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
}

// TestLoadV1Fixture pins the v1 compatibility contract: a committed
// version-1 file (no name table) still loads, replaying its vectors
// positionally exactly as the original implementation did.
func TestLoadV1Fixture(t *testing.T) {
	f, err := os.Open("testdata/v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != FormatV1 || len(snap.Symptoms) != 0 {
		t.Fatalf("fixture decoded as v%d with %d names", snap.Version, len(snap.Symptoms))
	}

	nn := NewNearestNeighbor()
	nn.UseNegatives = true
	// Replay into a deliberately non-empty space: positional vectors must
	// ignore it entirely.
	space := detect.NewSymptomSpace()
	space.Indices([]string{"unrelated.metric"})
	if err := snap.Replay(nn, space); err != nil {
		t.Fatal(err)
	}
	if nn.TrainingSize() != 3 {
		t.Fatalf("TrainingSize %d, want 3 successes", nn.TrainingSize())
	}
	if len(nn.negatives) != 1 {
		t.Fatalf("%d negatives, want 1", len(nn.negatives))
	}
	sug, ok := nn.Suggest([]float64{4.2, 0.1, 0, 1.4}, nil)
	if !ok || sug.Action.Fix != catalog.FixUpdateStats || sug.Action.Target != "items" {
		t.Fatalf("v1 replay suggests %v (ok=%v), want update-statistics(items)", sug, ok)
	}
}

// TestSaveUnnamedSpaceStaysPositional: a process that never registered
// metric names (pure-vector users) writes v2 files without a name table,
// which load with the historical positional semantics.
func TestSaveUnnamedSpaceStaysPositional(t *testing.T) {
	nn := NewNearestNeighbor()
	nn.Add(pt([]float64{1, 2, 3}, catalog.FixUpdateStats, "items"))
	var buf bytes.Buffer
	if err := save(&buf, nn, SaveOptions{Space: detect.NewSymptomSpace()}); err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Symptoms) != 0 {
		t.Fatalf("empty space produced %d names", len(snap.Symptoms))
	}
	back := NewNearestNeighbor()
	if err := snap.Replay(back, detect.NewSymptomSpace()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ex.all[0].X, []float64{1, 2, 3}) {
		t.Fatalf("positional replay altered the vector: %v", back.ex.all[0].X)
	}
}

// TestSaveRejectsOverWideVectors: vectors wider than the name table mean
// the synopsis was not built in the space being recorded.
func TestSaveRejectsOverWideVectors(t *testing.T) {
	space := detect.NewSymptomSpace()
	space.Indices([]string{"svc.lat", "svc.err"})
	nn := NewNearestNeighbor()
	nn.Add(pt([]float64{1, 2, 3}, catalog.FixUpdateStats, "items"))
	if _, err := Capture(nn, SaveOptions{Space: space}); err == nil {
		t.Error("3-dim vector accepted against a 2-name table")
	}
}

// TestSharedExportError: a Shared knowledge base over a base without
// Export must fail loudly instead of silently exporting an empty history
// that a later save would persist as data loss.
func TestSharedExportError(t *testing.T) {
	sh := NewShared(&noExportBase{NewNearestNeighbor()})
	sh.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	if _, err := sh.Export(); !errors.Is(err, ErrNotExportable) {
		t.Fatalf("Export error = %v, want ErrNotExportable", err)
	}
	if _, err := Capture(sh, SaveOptions{}); !errors.Is(err, ErrNotExportable) {
		t.Fatalf("Capture error = %v, want ErrNotExportable", err)
	}
}

// noExportBase hides the embedded learner's Export while keeping
// Synopsis and Cloner.
type noExportBase struct{ *NearestNeighbor }

func (b *noExportBase) Export() {} // different signature: not an Exporter

func (b *noExportBase) Clone() Synopsis {
	return &noExportBase{b.NearestNeighbor.Clone().(*NearestNeighbor)}
}
