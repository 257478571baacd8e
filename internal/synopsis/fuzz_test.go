package synopsis

// Fuzz targets for the two wire formats federation trusts: snapshot
// files (JSON v1 and v2) and binary deltas. Both decoders face bytes
// from the network — kbtool fetch, /kb/delta pulls, gossip pushes — so
// beyond "no panics" each target checks the decoder's contract: anything
// accepted re-encodes to the same value (snapshots) or the same bytes
// (deltas), respects the name-table width invariant, and replays into a
// live synopsis without crashing it.

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// fuzzSeedSnapshot builds a small well-formed v2 snapshot for the seed
// corpus.
func fuzzSeedSnapshot() []byte {
	snap := &Snapshot{
		Version:  FormatV2,
		Synopsis: "nearest-neighbor",
		Symptoms: []string{"svc.latency", "svc.errors"},
		Seq:      7,
		Points: []Point{
			{X: []float64{1.5, 0}, Action: Action{Fix: 1, Target: "app"}, Success: true},
			{X: []float64{0, 2.25}, Action: Action{Fix: 2, Target: "db"}, Success: false},
		},
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// normalizeSnapshot maps empty slices and maps to nil so the
// round-trip oracle compares wire semantics, not Go representation
// (json decoding is case-insensitive on keys, so "sYmptoms":[] yields
// an empty non-nil slice that omitempty then drops on re-encode).
func normalizeSnapshot(snap *Snapshot) {
	if len(snap.Symptoms) == 0 {
		snap.Symptoms = nil
	}
	if len(snap.Points) == 0 {
		snap.Points = nil
	}
	if len(snap.Targets) == 0 {
		snap.Targets = nil
	}
	for i := range snap.Points {
		if len(snap.Points[i].X) == 0 {
			snap.Points[i].X = nil
		}
	}
	for name, tc := range snap.Targets {
		if len(tc.FaultKinds) == 0 {
			tc.FaultKinds = nil
		}
		if len(tc.CandidateFixes) == 0 {
			tc.CandidateFixes = nil
		}
		for k, v := range tc.CandidateFixes {
			if len(v) == 0 {
				tc.CandidateFixes[k] = nil
			}
		}
		snap.Targets[name] = tc
	}
}

func FuzzDecode(f *testing.F) {
	if v1, err := os.ReadFile("testdata/v1.json"); err == nil {
		f.Add(v1)
	}
	f.Add(fuzzSeedSnapshot())
	f.Add([]byte(`{"version":3}`))
	f.Add([]byte(`{"version":2,"symptoms":["a"],"points":[{"x":[1,2],"fix":"microreboot-ejb"}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input satisfies the decoder's stated hygiene.
		if snap.Version != FormatV1 && snap.Version != FormatV2 {
			t.Fatalf("accepted unsupported version %d", snap.Version)
		}
		for i, p := range snap.Points {
			if len(snap.Symptoms) > 0 && len(p.X) > len(snap.Symptoms) {
				t.Fatalf("point %d wider (%d) than name table (%d)", i, len(p.X), len(snap.Symptoms))
			}
		}
		// The wire form is canonical: encode(decode(x)) re-decodes to
		// the same snapshot.
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decoding canonical form: %v", err)
		}
		// Empty and nil slices/maps are the same snapshot; omitempty
		// drops explicit empties on the wire.
		normalizeSnapshot(snap)
		normalizeSnapshot(back)
		if !reflect.DeepEqual(snap, back) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", back, snap)
		}
		// Anything the decoder accepts must replay into a live synopsis
		// without panicking (errors are fine — unknown synopsis names,
		// unmappable symptoms).
		_ = snap.Replay(NewNearestNeighbor(), nil)
	})
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
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, p := range d.Points {
			if len(d.Symptoms) > 0 && len(p.X) > len(d.Symptoms) {
				t.Fatalf("delta point %d wider (%d) than name table (%d)", i, len(p.X), len(d.Symptoms))
			}
		}
		// A delta has one encoding, so anything accepted re-encodes to
		// the very bytes it was decoded from.
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatalf("re-encoding accepted delta: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %x\nbut it re-encodes as %x", data, buf.Bytes())
		}
		// Accepted points must be appliable to a live shared KB — the
		// exact path a gossip push or long-poll pull takes.
		kb := NewShared(NewNearestNeighbor())
		kb.AddBatch(d.Points)
		if kb.LogSize() > len(d.Points) {
			t.Fatalf("applying %d points logged %d", len(d.Points), kb.LogSize())
		}
	})
}
