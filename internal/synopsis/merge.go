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
//     canonicalized (trailing zero dimensions trimmed; under the symptom
//     space's sparse-vector convention a trimmed vector is
//     indistinguishable from its padded form).
//   - Points are concatenated in argument order; exact duplicates — same
//     canonical vector, fix, fix target and success flag — keep their
//     first occurrence only, so merging overlapping descendants of one
//     knowledge base does not double-weight shared history.
//   - Target catalogs are unioned by kind name, first snapshot wins on
//     conflict.
//   - The merged synopsis label is the common learner name, or "merged"
//     when the inputs disagree.
//
// These rules make Merge associative: ((A⊕B)⊕C) and (A⊕(B⊕C)) produce
// byte-identical snapshots.
//
// Named and unnamed snapshots cannot be mixed: an unnamed (v1 or
// empty-space v2) file's coordinates are positional, and gluing them onto
// named dimensions would silently mis-rank fixes — exactly the failure
// mode format v2 exists to close. Convert unnamed files first (kbtool
// convert -targets ...). Merging only unnamed snapshots is allowed and
// stays positional: it is correct when every writer registered target
// kinds in the same order.
func Merge(snaps ...*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("synopsis: nothing to merge")
	}
	named := len(snaps[0].Symptoms) > 0
	for i, s := range snaps {
		if (len(s.Symptoms) > 0) != named {
			return nil, fmt.Errorf("synopsis: cannot merge named and unnamed snapshots (input %d differs): convert unnamed files to format v2 with a name table first", i)
		}
	}

	out := &Snapshot{Version: FormatV2, Synopsis: snaps[0].Synopsis}
	space := detect.NewSymptomSpace()
	seen := make(map[string]bool)
	for _, s := range snaps {
		if s.Synopsis != out.Synopsis {
			out.Synopsis = "merged"
		}
		// Register the input's whole name table, not just the names its
		// (trimmed) points happen to cover: the union schema must carry
		// every name any input knew, or associativity breaks on names
		// whose only points end in zeros.
		if named {
			space.Indices(s.Symptoms)
		}
		for kind, cat := range s.Targets {
			if out.Targets == nil {
				out.Targets = make(map[string]TargetCatalog)
			}
			if _, dup := out.Targets[kind]; !dup {
				out.Targets[kind] = cat
			}
		}
		for _, p := range s.Points {
			if named {
				p.X = space.Remap(s.Symptoms, p.X)
			} else {
				p.X = append([]float64(nil), p.X...)
			}
			p.X = trimZeros(p.X)
			key := dedupKey(p)
			if seen[key] {
				continue
			}
			seen[key] = true
			out.Points = append(out.Points, p)
		}
	}
	if named {
		out.Symptoms = space.Names()
	}
	return out, nil
}

// Keys returns the canonical identity multiset of the snapshot's points:
// each key identifies a point by its coordinates (remapped into space
// when the snapshot carries a name table, trimmed of trailing zeros),
// action and outcome, mapped to its multiplicity. Two snapshots keyed
// against one shared space hold the same experience exactly when their
// key multisets are equal — the comparison kbtool diff runs. A nil space
// uses a fresh private one (fine for a single snapshot or for unnamed
// ones, whose coordinates are positional).
func (snap *Snapshot) Keys(space *detect.SymptomSpace) map[string]int {
	if space == nil {
		space = detect.NewSymptomSpace()
	}
	out := make(map[string]int, len(snap.Points))
	for _, p := range snap.Points {
		if len(snap.Symptoms) > 0 {
			p.X = space.Remap(snap.Symptoms, p.X)
		}
		p.X = trimZeros(p.X)
		out[dedupKey(p)]++
	}
	return out
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
