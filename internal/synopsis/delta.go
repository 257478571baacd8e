package synopsis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
)

// A Delta is a knowledge base's published history between two of its
// sequence numbers, together with the producer's symptom-space name table
// so a heterogeneous reader can remap the vectors exactly. It is the one
// form knowledge travels and rests in: /kb/delta serves deltas and
// kbsync applies them, and a snapshot — what Capture builds, /kb/snapshot
// serves and -kb-out writes — is simply the delta since zero.
type Delta struct {
	// Since is the sequence the delta starts after — the cursor the
	// requesting peer presented; zero for a snapshot.
	Since uint64
	// Seq is the producing knowledge base's sequence after these points;
	// the peer stores it and asks for DeltaSince(Seq) next time. Zero
	// when the producer does not version its writes (plain learners).
	Seq uint64
	// Epoch identifies the producing node's process life. Sequences are
	// only comparable within one epoch: a node that restarts gets a
	// fresh epoch, and a consumer holding a cursor from another epoch
	// must reset to a full pull rather than trust the number. Empty for
	// producers that do not version their lives, and for snapshots.
	Epoch string
	// Symptoms is the producer's name table at capture time: Symptoms[d]
	// names point-vector dimension d. Empty when the producer's symptom
	// space is unnamed; such deltas apply positionally.
	Symptoms []string
	// Points is the published history, in arrival order.
	Points []Point
}

// deltaMagic opens every encoded delta: three letters and the format
// version. It is also the stored-file format, and the rule stays the one
// the wire always had: a new format replaces the version and the reader,
// and no old reader stays behind. A stored file of a retired format is
// re-saved by a binary that still reads it (KNOWLEDGE_BASES.md).
const deltaMagic = "KBD\x02"

// ErrJSONRetired is Decode's error for input that starts like a JSON
// document: the knowledge-base file format of earlier releases, which no
// longer has a reader.
var ErrJSONRetired = errors.New("the JSON knowledge-base format was retired; re-save the file in the binary format (KNOWLEDGE_BASES.md)")

// CaptureDelta builds the Delta of everything s published after sequence
// since, naming the vectors from space (nil: detect.DefaultSymptomSpace).
// The name table is read after the points, and the space only grows, so
// every returned vector's dimensions are covered by the table even while
// writers race.
func CaptureDelta(s *Shared, since uint64, space *detect.SymptomSpace) *Delta {
	pts, seq := s.DeltaSince(since)
	if space == nil {
		space = detect.DefaultSymptomSpace
	}
	return &Delta{Since: since, Seq: seq, Symptoms: space.Names(), Points: pts}
}

// Encode writes the delta in its binary form: deltaMagic, Since and Seq
// as uvarints, the epoch, the symptom-name table, then each point's fix
// name, target, outcome byte, width and little-endian float64 bits, every
// string and table behind its uvarint length (KNOWLEDGE_BASES.md has the
// table).
func (d *Delta) Encode(w io.Writer) error {
	b := make([]byte, 0, 64+32*len(d.Symptoms)+len(d.Points)*(64+8*len(d.Symptoms)))
	b = append(b, deltaMagic...)
	b = binary.AppendUvarint(b, d.Since)
	b = binary.AppendUvarint(b, d.Seq)
	b = appendString(b, d.Epoch)
	b = binary.AppendUvarint(b, uint64(len(d.Symptoms)))
	for _, name := range d.Symptoms {
		b = appendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Points)))
	for _, p := range d.Points {
		b = appendString(b, p.Action.Fix.String())
		b = appendString(b, p.Action.Target)
		b = append(b, outcomeByte(p.Success))
		b = binary.AppendUvarint(b, uint64(len(p.X)))
		for _, v := range p.X {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	_, err := w.Write(b)
	return err
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func outcomeByte(success bool) byte {
	if success {
		return 1
	}
	return 0
}

// Decode parses an encoded delta or snapshot — the one reader of
// knowledge-base bytes — rejecting a foreign magic or version (input that
// starts like JSON with ErrJSONRetired), unresolvable fix names, vectors
// wider than the name table, trailing bytes, and any declared count or
// length the remaining bytes cannot hold — checked before anything is
// allocated for it.
func Decode(r io.Reader) (*Delta, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("synopsis: reading delta: %w", err)
	}
	if bytes.HasPrefix(bytes.TrimLeft(b, " \t\r\n"), []byte("{")) {
		return nil, fmt.Errorf("synopsis: %w", ErrJSONRetired)
	}
	if !bytes.HasPrefix(b, []byte(deltaMagic)) {
		return nil, fmt.Errorf("synopsis: not a delta of version %d (it starts % x)", deltaMagic[3], b[:min(len(b), 4)])
	}
	in := deltaReader{b: b[len(deltaMagic):]}
	d := &Delta{Since: in.uvarint(), Seq: in.uvarint(), Epoch: in.str()}
	for n := in.count(1); n > 0 && in.err == nil; n-- {
		d.Symptoms = append(d.Symptoms, in.str())
	}
	// A point takes at least 4 bytes: two lengths, outcome and width.
	if n := in.count(4); n > 0 {
		d.Points = make([]Point, n)
	}
	for i := range d.Points {
		p := &d.Points[i]
		name := in.str()
		var ok bool
		if p.Action.Fix, ok = fixByName(name); !ok {
			in.fail("point %d has unknown fix %q", i, name)
		}
		p.Action.Target = in.str()
		// 0 and 1 as uvarints are the bytes 0 and 1; anything else is refused.
		outcome := in.uvarint()
		if p.Success = outcome == 1; outcome > 1 {
			in.fail("point %d has outcome byte %d", i, outcome)
		}
		width := in.count(8)
		if len(d.Symptoms) > 0 && width > len(d.Symptoms) {
			in.fail("point %d has %d dimensions but the name table covers %d", i, width, len(d.Symptoms))
		}
		if in.err != nil {
			break
		}
		if width > 0 {
			p.X = make([]float64, width)
			for j, raw := 0, in.take(8*width); j < width; j++ {
				p.X[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		}
	}
	if len(in.b) > 0 {
		in.fail("%d trailing bytes", len(in.b))
	}
	if in.err != nil {
		return nil, fmt.Errorf("synopsis: decoding delta: %w", in.err)
	}
	return d, nil
}

// DecodeDelta is Decode, kept under the name the benchmark module reads
// deltas by.
func DecodeDelta(r io.Reader) (*Delta, error) { return Decode(r) }

// fixByName resolves a serialized fix name.
func fixByName(name string) (catalog.FixID, bool) {
	for _, f := range catalog.FixIDs() {
		if f.String() == name {
			return f, true
		}
	}
	return catalog.FixNone, false
}

// deltaReader consumes an encoded delta front to back. The first
// malformed field sets err and empties the reader; every later read then
// returns zeros, so Decode checks once per point, not per field.
type deltaReader struct {
	b   []byte
	err error
}

func (r *deltaReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// uvarint reads one uvarint, refusing any but its shortest form, so that
// a delta has exactly one encoding.
func (r *deltaReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a declared number of items of at least unit bytes each,
// refusing one the remaining bytes cannot hold.
func (r *deltaReader) count(unit int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/unit) {
		r.fail("declared size %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// take returns the next n bytes, n having passed count.
func (r *deltaReader) take(n int) []byte {
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *deltaReader) str() string { return string(r.take(r.count(1))) }
