package synopsis

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"selfheal/internal/catalog"
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
	if !strings.Contains(buf.String(), `"success": false`) {
		t.Error("negative observation not serialized")
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
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version":9,"points":[]}`)); err == nil {
		t.Error("future version accepted")
	}
	bad := `{"version":1,"points":[{"x":[1],"fix":"no-such-fix","success":true}]}`
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("unknown fix accepted")
	}
}
