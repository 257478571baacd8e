package synopsis

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"selfheal/internal/detect"
)

// Merge folds N knowledge-base snapshots into one — the fleet story of
// §5.1's portability argument run in reverse: experience built on many
// machines pooled into a single file that any process can load.
//
// The merge rules, in order:
//
//   - Schemas are unioned by metric name, first-seen order: the merged
//     name table starts with the first snapshot's names and appends each
//     later snapshot's previously-unseen names.
//   - Every point vector is remapped into the union space and
//     canonicalized (see Canonical).
//   - Points are concatenated in argument order; exact duplicates — same
//     canonical vector, fix, fix target and success flag — keep their
//     first occurrence only, so merging overlapping descendants of one
//     knowledge base does not double-weight shared history.
//
// These rules make Merge associative: ((A⊕B)⊕C) and (A⊕(B⊕C)) produce
// byte-identical snapshots. The result carries no sequence: it is no
// single knowledge base's version.
//
// Named and unnamed snapshots cannot be mixed: an unnamed file's
// coordinates are positional, and gluing them onto named dimensions would
// silently mis-rank fixes — exactly the failure mode the name table exists
// to close. Merging only unnamed snapshots is allowed and stays
// positional: it is correct when every writer registered target kinds in
// the same order.
func Merge(snaps ...*Delta) (*Delta, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("synopsis: nothing to merge")
	}
	named := len(snaps[0].Symptoms) > 0
	for i, s := range snaps {
		if (len(s.Symptoms) > 0) != named {
			return nil, fmt.Errorf("synopsis: cannot merge named and unnamed snapshots (input %d differs)", i)
		}
	}

	out := &Delta{}
	space := detect.NewSymptomSpace()
	seen := make(map[string]bool)
	for _, s := range snaps {
		// Register the input's whole name table, not just the names its
		// (trimmed) points happen to cover: the union schema must carry
		// every name any input knew, or associativity breaks on names
		// whose only points end in zeros.
		space.Indices(s.Symptoms)
		s.Canonical(space, func(p Point, key string) {
			if !seen[key] {
				seen[key] = true
				out.Points = append(out.Points, p)
			}
		})
	}
	if named {
		out.Symptoms = space.Names()
	}
	return out, nil
}

// Keys returns the canonical identity multiset of the delta's points
// (see Canonical), each key mapped to its multiplicity. Two snapshots
// keyed against one shared space hold the same experience exactly when
// their key multisets are equal — the comparison kbtool diff runs. A nil
// space uses a fresh private one (fine for a single snapshot or for
// unnamed ones, whose coordinates are positional).
func (d *Delta) Keys(space *detect.SymptomSpace) map[string]int {
	if space == nil {
		space = detect.NewSymptomSpace()
	}
	out := make(map[string]int, len(d.Points))
	d.Canonical(space, func(_ Point, key string) { out[key]++ })
	return out
}

// Canonical visits the delta's points in order, each remapped by name
// into space (copied as it is when the delta is unnamed) and trimmed of
// trailing zero dimensions, together with its CanonicalKey. It is the one
// step Merge, Keys and federation's delta application share, so the three
// agree on what "the same point" means. A visited vector is the caller's
// to keep.
func (d *Delta) Canonical(space *detect.SymptomSpace, visit func(p Point, key string)) {
	for _, p := range d.Points {
		if len(d.Symptoms) > 0 {
			p.X = space.Remap(d.Symptoms, p.X)
		} else {
			p.X = append([]float64(nil), p.X...)
		}
		p.X = trimZeros(p.X)
		visit(p, dedupKey(p))
	}
}

// CanonicalKey returns the canonical identity of a point: its
// coordinates trimmed of trailing zeros (indistinguishable from the
// padded form under the sparse-vector convention), action and outcome.
// It is the identity Merge dedups by, and the one kbsync uses to apply
// federation deltas with Merge semantics — a point already present in
// the knowledge base is not double-counted when a peer sends it again.
// The caller's vector must already be expressed in the comparing space's
// coordinates (remap first when it is not).
func CanonicalKey(p Point) string {
	p.X = trimZeros(p.X)
	return dedupKey(p)
}

// trimZeros drops trailing zero coordinates — the canonical form of a
// sparse symptom vector (see feature).
func trimZeros(x []float64) []float64 {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return x[:n]
}

// dedupKey is a stable identity for a canonicalized point: SHA-256 over
// its fix, target, outcome and exact coordinate bits (every NaN as one
// pattern; -0 and 0 distinct), as a 32-byte string. Fixed size keeps the
// identity sets small at any vector width; collision resistance means a
// peer cannot craft a point that shadows another.
func dedupKey(p Point) string {
	b := make([]byte, 0, 1024) // on the stack at every shipped width
	b = binary.AppendVarint(b, int64(p.Action.Fix))
	b = appendString(b, p.Action.Target)
	b = append(b, outcomeByte(p.Success))
	for _, v := range p.X {
		if v != v {
			v = math.NaN()
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}
