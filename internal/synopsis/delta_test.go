package synopsis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
)

func TestSharedSeqAdvancesPerWrite(t *testing.T) {
	s := NewShared(NewNearestNeighbor())
	if s.Seq() != 0 {
		t.Fatalf("fresh KB seq = %d, want 0", s.Seq())
	}
	s.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	if s.Seq() != 1 {
		t.Fatalf("after one Add seq = %d, want 1", s.Seq())
	}
	// A batch is one write, one sequence step, however many points.
	s.AddBatch([]Point{
		pt([]float64{2}, catalog.FixMicrorebootEJB, "ItemBean"),
		pt([]float64{3}, catalog.FixFailoverNode, "db"),
	})
	if s.Seq() != 2 {
		t.Fatalf("after Add+AddBatch seq = %d, want 2", s.Seq())
	}
	// An empty batch publishes nothing and must not advance the version.
	s.AddBatch(nil)
	if s.Seq() != 2 {
		t.Fatalf("empty AddBatch advanced seq to %d", s.Seq())
	}
}

func TestSharedDeltaSince(t *testing.T) {
	s := NewShared(NewNearestNeighbor())
	p1 := pt([]float64{1}, catalog.FixUpdateStats, "items")
	p2 := pt([]float64{2}, catalog.FixMicrorebootEJB, "ItemBean")
	p3 := pt([]float64{3}, catalog.FixFailoverNode, "db")
	s.Add(p1)                   // seq 1
	s.AddBatch([]Point{p2, p3}) // seq 2
	seqAfter := s.Seq()

	pts, seq := s.DeltaSince(0)
	if seq != seqAfter || len(pts) != 3 {
		t.Fatalf("DeltaSince(0) = %d points at seq %d, want 3 at %d", len(pts), seq, seqAfter)
	}
	pts, _ = s.DeltaSince(1)
	if want := []Point{p2, p3}; !reflect.DeepEqual(pts, want) {
		t.Fatalf("DeltaSince(1) = %+v, want the second write's batch", pts)
	}
	// Current cursor: empty delta, same seq.
	pts, seq = s.DeltaSince(seqAfter)
	if pts != nil || seq != seqAfter {
		t.Fatalf("DeltaSince(current) = %d points at seq %d, want none", len(pts), seq)
	}
	// Cursor from the future behaves like current (the ops plane resets
	// such callers to a full pull before this is ever reached).
	pts, seq = s.DeltaSince(seqAfter + 10)
	if pts != nil || seq != seqAfter {
		t.Fatalf("DeltaSince(future) = %d points at seq %d", len(pts), seq)
	}
}

func TestSharedDeltaIncludesNegatives(t *testing.T) {
	s := NewShared(NewNearestNeighbor())
	neg := Point{X: []float64{4}, Action: Action{Fix: catalog.FixRebootDBTier}, Success: false}
	s.Add(neg)
	pts, _ := s.DeltaSince(0)
	if len(pts) != 1 || pts[0].Success {
		t.Fatalf("negative observation lost from the delta log: %+v", pts)
	}
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	d := &Delta{
		Since:    3,
		Seq:      7,
		Symptoms: []string{"svc.lat", "a.one"},
		Points: []Point{
			pt([]float64{1, 2}, catalog.FixUpdateStats, "items"),
			{X: []float64{0, 5}, Action: Action{Fix: catalog.FixMicrorebootEJB, Target: "B"}, Success: false},
		},
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip changed the delta:\n got %+v\nwant %+v", got, d)
	}
}

// wireBuilder writes the documented delta layout by hand, independently
// of Encode, remembering where every count and length sits.
type wireBuilder struct {
	b      []byte
	counts []int // offset of each count or length uvarint
}

func (w *wireBuilder) count(n int) {
	w.counts = append(w.counts, len(w.b))
	w.b = binary.AppendUvarint(w.b, uint64(n))
}

func (w *wireBuilder) str(s string) {
	w.count(len(s))
	w.b = append(w.b, s...)
}

// point appends one point with fix spelled as given, so a test can write
// names the catalog does not hold.
func (w *wireBuilder) point(fix string, p Point) {
	w.str(fix)
	w.str(p.Action.Target)
	if p.Success {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
	w.count(len(p.X))
	for _, v := range p.X {
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
	}
}

// header appends everything before the points: magic, version, cursor,
// epoch, name table and the point count.
func (w *wireBuilder) header(version byte, d *Delta, points int) {
	w.b = append(w.b, 'K', 'B', 'D', version)
	w.b = binary.AppendUvarint(w.b, d.Since)
	w.b = binary.AppendUvarint(w.b, d.Seq)
	w.str(d.Epoch)
	w.count(len(d.Symptoms))
	for _, name := range d.Symptoms {
		w.str(name)
	}
	w.count(points)
}

func handEncode(d *Delta) *wireBuilder {
	w := &wireBuilder{}
	w.header(2, d, len(d.Points))
	for _, p := range d.Points {
		w.point(p.Action.Fix.String(), p)
	}
	return w
}

func TestDecodeDeltaRejectsBadInput(t *testing.T) {
	good := pt([]float64{1}, catalog.FixUpdateStats, "items")
	reject := func(what string, build func(w *wireBuilder)) {
		t.Helper()
		w := &wireBuilder{}
		build(w)
		if _, err := DecodeDelta(bytes.NewReader(w.b)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	reject("unknown delta version", func(w *wireBuilder) { w.header(9, &Delta{}, 0) })
	reject("foreign magic", func(w *wireBuilder) { w.header(2, &Delta{}, 0); w.b[0] = 'k' })
	reject("the retired JSON format", func(w *wireBuilder) { w.b = []byte(`{"version":1,"since":0,"seq":1,"points":[]}`) })
	reject("unknown fix name", func(w *wireBuilder) {
		w.header(2, &Delta{}, 1)
		w.point("no-such-fix", good)
	})
	reject("vector wider than the name table", func(w *wireBuilder) {
		w.header(2, &Delta{Symptoms: []string{"a"}}, 1)
		w.point("update-statistics", pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	})
	reject("trailing bytes", func(w *wireBuilder) {
		w.header(2, &Delta{}, 1)
		w.point("update-statistics", good)
		w.b = append(w.b, 0)
	})
	reject("point count beyond the body", func(w *wireBuilder) {
		w.header(2, &Delta{}, 1<<40)
		w.point("update-statistics", good)
	})
	reject("width beyond the body", func(w *wireBuilder) {
		w.header(2, &Delta{}, 1)
		w.point("update-statistics", good)
		w.b[w.counts[len(w.counts)-1]] = 2
	})
}

// randomDelta draws a small delta that exercises every shape the codec
// must carry: empty and unnamed deltas, 0-width and ragged vectors,
// ±Inf, -0, NaN payloads, non-ASCII targets, every fix id.
func randomDelta(rng *rand.Rand) *Delta {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000abc), math.MaxFloat64, math.SmallestNonzeroFloat64}
	names := []string{"", "app", "items", "db/主", "réplica-2", "a|b", "\x00"}
	d := &Delta{Since: rng.Uint64() >> uint(rng.Intn(64)), Seq: rng.Uint64() >> uint(rng.Intn(64))}
	if rng.Intn(3) > 0 {
		d.Epoch = names[rng.Intn(len(names))] + "beef"
	}
	table := 0
	if rng.Intn(4) > 0 { // else unnamed
		table = 1 + rng.Intn(10)
		for i := 0; i < table; i++ {
			d.Symptoms = append(d.Symptoms, fmt.Sprintf("%s.m%d", names[rng.Intn(len(names))], i))
		}
	}
	fixes := catalog.FixIDs()
	for i, n := 0, rng.Intn(7); i < n; i++ { // n == 0: an empty delta
		p := Point{
			Action:  Action{Fix: fixes[rng.Intn(len(fixes))], Target: names[rng.Intn(len(names))]},
			Success: rng.Intn(2) == 0,
		}
		width := rng.Intn(12)
		if table > 0 {
			width = rng.Intn(table + 1)
		}
		for j := 0; j < width; j++ {
			v := rng.NormFloat64()
			if rng.Intn(3) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			p.X = append(p.X, v)
		}
		d.Points = append(d.Points, p)
	}
	return d
}

// sameDelta compares two deltas bit for bit: floats by their bits (NaN
// payloads and the sign of zero included), empty and nil slices alike.
func sameDelta(a, b *Delta) bool {
	if a.Since != b.Since || a.Seq != b.Seq || a.Epoch != b.Epoch ||
		len(a.Symptoms) != len(b.Symptoms) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Symptoms {
		if a.Symptoms[i] != b.Symptoms[i] {
			return false
		}
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.Action != q.Action || p.Success != q.Success || len(p.X) != len(q.X) {
			return false
		}
		for j := range p.X {
			if math.Float64bits(p.X[j]) != math.Float64bits(q.X[j]) {
				return false
			}
		}
	}
	return true
}

// allocatedBy returns the bytes fn allocates: the least of three
// measurements, because TotalAlloc counts the whole process and another
// goroutine's allocation (the runtime's own included) can only add to one.
func allocatedBy(fn func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < least {
			least = got
		}
	}
	return least
}

// TestDeltaCodecProperties runs seeded random deltas through the codec.
// Encode writes exactly the documented layout (the hand encoder's bytes)
// and DecodeDelta returns the delta bit for bit. Every strict prefix of
// an encoding is refused. A single-byte corruption of a count or length
// is refused too, unless the damaged bytes happen to be the one valid
// encoding of some other delta (a length that swallows exactly the rest
// of the body, say) — the framing carries no checksum, the transport
// does — and that must stay rare. Either way a corrupted size never
// panics and never makes the decoder allocate more than a small multiple
// of the bytes it was given.
func TestDeltaCodecProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	corruptions, accepted := 0, 0
	for n := 0; n < 60; n++ {
		d := randomDelta(rng)
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		hand := handEncode(d)
		if !bytes.Equal(wire, hand.b) {
			t.Fatalf("delta %d: Encode wrote\n%x\nthe documented layout is\n%x", n, wire, hand.b)
		}
		back, err := DecodeDelta(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("delta %d: %v", n, err)
		}
		if !sameDelta(d, back) {
			t.Fatalf("delta %d: round trip changed it:\n got %+v\nwant %+v", n, back, d)
		}
		for cut := 0; cut < len(wire); cut++ {
			if _, err := DecodeDelta(bytes.NewReader(wire[:cut])); err == nil {
				t.Fatalf("delta %d: the %d-byte prefix of its %d bytes decoded", n, cut, len(wire))
			}
		}
		bad := append([]byte(nil), wire...)
		for _, off := range hand.counts {
			for v := 0; v < 256; v++ {
				if byte(v) == wire[off] {
					continue
				}
				bad[off] = byte(v)
				corruptions++
				decoded := false
				decode := func() {
					other, err := DecodeDelta(bytes.NewReader(bad))
					if err != nil {
						return
					}
					decoded = true
					var again bytes.Buffer
					if other.Encode(&again); !bytes.Equal(again.Bytes(), bad) {
						t.Fatalf("delta %d: count at offset %d corrupted %#x -> %#x decoded, and not as the delta those bytes encode", n, off, wire[off], v)
					}
				}
				if v != 0x7f && v != 0xff { // the largest one- and multi-byte claims get measured
					decode()
				} else if got, limit := allocatedBy(decode), uint64(32*len(bad)+2048); got > limit {
					t.Fatalf("delta %d: count at offset %d corrupted to %#x: decoding %d bytes allocated %d, limit %d",
						n, off, v, len(bad), got, limit)
				}
				if decoded {
					accepted++
				}
			}
			bad[off] = wire[off]
		}
	}
	if accepted*1000 > corruptions {
		t.Fatalf("%d of %d corrupted counts still decoded; expected well under 1 in 1,000", accepted, corruptions)
	}
	t.Logf("%d corrupted counts, %d of them another delta's valid encoding", corruptions, accepted)
}

func TestCaptureDeltaNamesCoverPoints(t *testing.T) {
	space := detect.NewSymptomSpace()
	space.Indices([]string{"m.a", "m.b"})
	s := NewShared(NewNearestNeighbor())
	s.Add(pt([]float64{1, 2}, catalog.FixUpdateStats, "items"))
	d := CaptureDelta(s, 0, space)
	if d.Seq != 1 || len(d.Points) != 1 {
		t.Fatalf("captured delta %+v", d)
	}
	if want := []string{"m.a", "m.b"}; !reflect.DeepEqual(d.Symptoms, want) {
		t.Fatalf("delta symptoms %v, want %v", d.Symptoms, want)
	}
}

func TestCaptureRecordsSharedSeq(t *testing.T) {
	s := NewShared(NewNearestNeighbor())
	s.Add(pt([]float64{1}, catalog.FixUpdateStats, "items"))
	s.Add(pt([]float64{2}, catalog.FixUpdateStats, "items"))
	snap, err := Capture(s, SaveOptions{Space: detect.NewSymptomSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 2 {
		t.Fatalf("snapshot seq = %d, want 2", snap.Seq)
	}
	// And it survives the wire.
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 2 {
		t.Fatalf("decoded seq = %d, want 2", back.Seq)
	}
}

func TestCanonicalKeyTrimsTrailingZeros(t *testing.T) {
	a := pt([]float64{1, 2, 0, 0}, catalog.FixUpdateStats, "items")
	b := pt([]float64{1, 2}, catalog.FixUpdateStats, "items")
	c := pt([]float64{1, 2, 3}, catalog.FixUpdateStats, "items")
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Error("zero-padded vector keyed differently from its trimmed form")
	}
	if CanonicalKey(a) == CanonicalKey(c) {
		t.Error("distinct vectors share a canonical key")
	}
	neg := b
	neg.Success = false
	if CanonicalKey(b) == CanonicalKey(neg) {
		t.Error("outcome not part of the canonical identity")
	}
	if len(CanonicalKey(a)) != 32 {
		t.Errorf("canonical key is %d bytes, want a fixed 32", len(CanonicalKey(a)))
	}
	negZero := math.Copysign(0, -1)
	if CanonicalKey(pt([]float64{1, 2, negZero}, catalog.FixUpdateStats, "items")) != CanonicalKey(b) {
		t.Error("a trailing -0 is a zero and must be trimmed")
	}
	if CanonicalKey(pt([]float64{negZero, 2}, catalog.FixUpdateStats, "items")) == CanonicalKey(pt([]float64{0, 2}, catalog.FixUpdateStats, "items")) {
		t.Error("-0 and 0 in a kept coordinate share a key")
	}
	nan1 := pt([]float64{math.NaN(), 2}, catalog.FixUpdateStats, "items")
	nan2 := pt([]float64{math.Float64frombits(0xfff8000000000123), 2}, catalog.FixUpdateStats, "items")
	if CanonicalKey(nan1) != CanonicalKey(nan2) {
		t.Error("two NaN payloads keyed differently; every NaN is one coordinate value")
	}
}

// TestCanonicalKeyIsPointIdentity draws point pairs — half of them one
// point represented two ways, half independent draws from a domain small
// enough to collide — and checks the key against the definition: two
// keys are equal exactly when fix, target, outcome and the trimmed
// vectors' coordinates (bit for bit, all NaNs alike) are equal. The
// targets include separators and prefixes of one another, so a framing
// that let one field bleed into the next would show.
func TestCanonicalKeyIsPointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	coords := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff8000000000001)}
	targets := []string{"", "a", "ab", "a\x00", "\x01", "a|true"}
	draw := func() Point {
		p := Point{
			Action:  Action{Fix: catalog.FixID(1 + rng.Intn(3)), Target: targets[rng.Intn(len(targets))]},
			Success: rng.Intn(2) == 0,
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			p.X = append(p.X, coords[rng.Intn(len(coords))])
		}
		return p
	}
	same := func(a, b Point) bool {
		x, y := trimZeros(a.X), trimZeros(b.X)
		if a.Action != b.Action || a.Success != b.Success || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20000; i++ {
		a, b := draw(), draw()
		if i%2 == 0 {
			// The same identity, represented differently: other NaN
			// payloads, zeros of either sign appended.
			b = a
			b.X = append([]float64(nil), a.X...)
			for j, v := range b.X {
				if math.IsNaN(v) {
					b.X[j] = math.Float64frombits(0xfff8000000000000 | uint64(rng.Intn(1<<20)))
				}
			}
			b.X = append(b.X, 0, math.Copysign(0, -1))[:len(a.X)+rng.Intn(3)]
		}
		want := same(a, b)
		if got := CanonicalKey(a) == CanonicalKey(b); got != want {
			t.Fatalf("CanonicalKey equality is %v, identity says %v:\n%+v\n%+v", got, want, a, b)
		}
	}
}
