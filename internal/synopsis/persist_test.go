package synopsis

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/sim"
)

// save writes the synopsis's history as a snapshot: Capture, then Encode.
func save(w io.Writer, s Synopsis, o SaveOptions) error {
	snap, err := Capture(s, o)
	if err != nil {
		return err
	}
	return snap.Encode(w)
}

// load replays a snapshot file into the synopsis: Decode, then Replay.
func load(r io.Reader, into Synopsis) error {
	snap, err := Decode(r)
	if err != nil {
		return err
	}
	return snap.Replay(into, nil)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := sim.NewRNG(21)
	train := twoClusterData(rng, 30, 4)
	test := twoClusterData(rng, 40, 4)

	orig := NewNearestNeighbor()
	for _, p := range train {
		orig.Add(p)
	}
	var buf bytes.Buffer
	if err := save(&buf, orig, SaveOptions{}); err != nil {
		t.Fatal(err)
	}

	restored := NewNearestNeighbor()
	if err := load(&buf, restored); err != nil {
		t.Fatal(err)
	}
	if restored.TrainingSize() != orig.TrainingSize() {
		t.Fatalf("restored %d points, want %d", restored.TrainingSize(), orig.TrainingSize())
	}
	for _, p := range test {
		a, okA := orig.Suggest(p.X, nil)
		b, okB := restored.Suggest(p.X, nil)
		if okA != okB || (okA && a.Action != b.Action) {
			t.Fatal("restored synopsis diverges from original")
		}
	}
}

func TestLoadIntoDifferentLearner(t *testing.T) {
	// The knowledge base is learner-agnostic: a history exported from NN
	// can train AdaBoost.
	rng := sim.NewRNG(23)
	train := twoClusterData(rng, 30, 4)
	nn := NewNearestNeighbor()
	for _, p := range train {
		nn.Add(p)
	}
	var buf bytes.Buffer
	if err := save(&buf, nn, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	ada := NewAdaBoost(15)
	if err := load(&buf, ada); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(ada, twoClusterData(rng, 40, 4)); acc < 0.9 {
		t.Errorf("adaboost trained from exported history: accuracy %.2f", acc)
	}
}

func TestSaveNegativesRoundTrip(t *testing.T) {
	nn := NewNearestNeighbor()
	nn.UseNegatives = true
	nn.Add(Point{X: []float64{1, 0}, Action: Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true})
	nn.Add(Point{X: []float64{0, 0}, Action: Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: false})
	var buf bytes.Buffer
	if err := save(&buf, nn, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Points) != 2 || snap.Points[1].Success {
		t.Fatalf("negative observation not serialized: %+v", snap.Points)
	}
	back := NewNearestNeighbor()
	back.UseNegatives = true
	if err := load(bytes.NewReader(buf.Bytes()), back); err != nil {
		t.Fatal(err)
	}
	if len(back.negatives) != 1 {
		t.Errorf("restored %d negatives, want 1", len(back.negatives))
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a knowledge base")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(strings.NewReader("KBD\x09\x00\x00\x00\x00\x00")); err == nil {
		t.Error("future version accepted")
	}
	bad := handEncode(&Delta{})
	bad.b = bad.b[:len(bad.b)-1]
	bad.count(1)
	bad.point("no-such-fix", Point{X: []float64{1}, Success: true})
	if _, err := Decode(bytes.NewReader(bad.b)); err == nil {
		t.Error("unknown fix accepted")
	}
}

// TestDecodeRefusesJSON: the JSON files earlier releases wrote have no
// reader left, and say so by name rather than as a bad magic.
func TestDecodeRefusesJSON(t *testing.T) {
	for _, in := range []string{
		`{"version":2,"synopsis":"nearest-neighbor","symptoms":["svc.latency"],"points":[]}`,
		"\n {\"version\":1,\"points\":[]}",
	} {
		_, err := Decode(strings.NewReader(in))
		if !errors.Is(err, ErrJSONRetired) {
			t.Errorf("Decode(%.20q) = %v, want ErrJSONRetired", in, err)
		}
	}
}

// TestEncodeGolden pins the encoded bytes of a fixed delta, so the stored
// files and the federation wire cannot drift: testdata/delta.golden.hex
// was written by the codec before snapshots became deltas, and every
// later encoder must reproduce it and read it back.
func TestEncodeGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/delta.golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{
		Since:    300,
		Seq:      70000,
		Epoch:    "5eed",
		Symptoms: []string{"svc.latency", "app.threads.util", "db.cpu"},
		Points: []Point{
			{X: []float64{1.5, -0.25, 3}, Action: Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true},
			{X: []float64{0, math.Inf(1)}, Action: Action{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"}, Success: false},
			{Action: Action{Fix: catalog.FixFullRestart}, Success: true},
		},
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoding drifted from the golden:\n got %x\nwant %x", buf.Bytes(), want)
	}
	back, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("golden decodes to %+v\nwant %+v", back, d)
	}
}

// TestSnapshotRanksLikeItsSource: Capture → Encode → Decode → Replay into
// a fresh nearest-neighbour learner answers RankK exactly as the source
// knowledge base does, on 1,000 queries of real width, for a plain shared
// knowledge base and for one compacted (near-duplicate merge and a cap)
// before it is saved.
func TestSnapshotRanksLikeItsSource(t *testing.T) {
	space := detect.NewSymptomSpace()
	for d := 0; d < 104; d++ {
		space.Indices([]string{fmt.Sprintf("m%03d", d)})
	}
	for _, compacted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(49))
		pts := clusteredPoints(rng, 3000)
		for i := 7; i < len(pts); i += 11 {
			pts[i].Success = false
		}
		src := NewShared(NewNearestNeighbor())
		src.AddBatch(pts[:2000])
		for _, p := range pts[2000:] {
			src.Add(p)
		}
		if compacted {
			if err := src.EnableCompaction(Compaction{MaxPoints: 1000, MergeRadius: 0.2}); err != nil {
				t.Fatal(err)
			}
			if _, err := src.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := save(&buf, src, SaveOptions{Space: space}); err != nil {
			t.Fatal(err)
		}
		snap, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewNearestNeighbor()
		if err := snap.Replay(fresh, space); err != nil {
			t.Fatal(err)
		}
		if fresh.TrainingSize() != src.TrainingSize() {
			t.Fatalf("compacted=%v: replayed %d points, source trains on %d", compacted, fresh.TrainingSize(), src.TrainingSize())
		}
		for i, q := range jitteredQueries(rng, pts, 1000) {
			if got, want := fresh.RankK(q, 3), src.RankK(q, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("compacted=%v, query %d: replayed RankK %v, source %v", compacted, i, got, want)
			}
		}
	}
}
