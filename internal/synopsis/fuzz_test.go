package synopsis

// Fuzz targets for the one format knowledge travels and rests in: the
// binary delta, which is also every snapshot file. The decoder faces
// bytes from the network and from disk — kbtool fetch, /kb/delta pulls,
// gossip pushes, -kb-in — so beyond "no panics" both targets check the
// decoder's contract: anything accepted re-encodes to the same bytes,
// respects the name-table width invariant, and applies to a live
// knowledge base without crashing it; anything shaped like the retired
// JSON files is refused by name. The two targets share that contract and
// differ only in where their corpora start: FuzzDecode from stored
// snapshot files (the delta since zero, and the JSON files of earlier
// releases), FuzzDecodeDelta from deltas as peers send them.

import (
	"bytes"
	"errors"
	"testing"

	"selfheal/internal/detect"
)

// fuzzSeedSnapshot builds a small well-formed snapshot — the delta
// since zero, as Capture makes it — for the seed corpus.
func fuzzSeedSnapshot() []byte {
	d := &Delta{
		Seq:      7,
		Symptoms: []string{"svc.latency", "svc.errors"},
		Points: []Point{
			{X: []float64{1.5, 0}, Action: Action{Fix: 1, Target: "app"}, Success: true},
			{X: []float64{0, 2.25}, Action: Action{Fix: 2, Target: "db"}, Success: false},
		},
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzDecode(f *testing.F) {
	valid := fuzzSeedSnapshot()
	f.Add(valid)
	// Truncated inside the last vector.
	f.Add(valid[:len(valid)-3])
	// Files of the retired JSON format, and bytes that are neither.
	f.Add([]byte(`{"version":3}`))
	f.Add([]byte(`{"version":2,"symptoms":["a"],"points":[{"x":[1,2],"fix":"microreboot-ejb"}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(checkDecode)
}

// fuzzSeedDelta builds a small well-formed delta for the seed corpus.
func fuzzSeedDelta() []byte {
	d := &Delta{
		Since:    3,
		Seq:      5,
		Epoch:    "deadbeef",
		Symptoms: []string{"svc.latency", "svc.errors"},
		Points: []Point{
			{X: []float64{4, 1}, Action: Action{Fix: 1, Target: "app"}, Success: true},
		},
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzDecodeDelta(f *testing.F) {
	valid := fuzzSeedDelta()
	f.Add(valid)
	// Truncated inside the vector.
	f.Add(valid[:len(valid)-5])
	// 2^32-1 points declared, none sent.
	f.Add([]byte("KBD\x02\x00\x00\x00\x00\xff\xff\xff\xff\x0f"))
	// An unknown version, and the retired JSON format (wrong magic).
	f.Add(append([]byte("KBD\x09"), valid[4:]...))
	f.Add([]byte(`{"version":1,"since":0,"seq":1,"points":[]}`))
	f.Fuzz(checkDecode)
}

// checkDecode is the decoder contract both targets assert on every input.
func checkDecode(t *testing.T, data []byte) {
	d, err := Decode(bytes.NewReader(data))
	if looksJSON := bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")); looksJSON != errors.Is(err, ErrJSONRetired) {
		t.Fatalf("input starting like JSON is %v, error %v", looksJSON, err)
	}
	if err != nil {
		return
	}
	for i, p := range d.Points {
		if len(d.Symptoms) > 0 && len(p.X) > len(d.Symptoms) {
			t.Fatalf("delta point %d wider (%d) than name table (%d)", i, len(p.X), len(d.Symptoms))
		}
	}
	// A delta has one encoding, so anything accepted re-encodes to the
	// very bytes it was decoded from.
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatalf("re-encoding accepted delta: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("accepted %x\nbut it re-encodes as %x", data, buf.Bytes())
	}
	// Accepted points must be appliable to a live shared KB — the exact
	// path a gossip push or long-poll pull takes — and replay into a
	// learner, the path -kb-in takes.
	kb := NewShared(NewNearestNeighbor())
	kb.AddBatch(d.Points)
	if kb.LogSize() > len(d.Points) {
		t.Fatalf("applying %d points logged %d", len(d.Points), kb.LogSize())
	}
	_ = d.Replay(NewNearestNeighbor(), detect.NewSymptomSpace())
}
