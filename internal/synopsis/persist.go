package synopsis

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
)

// Persistence turns a learned synopsis into the portable knowledge base
// the paper's §5.1 asks for ("generate a knowledge-base that a
// practitioner can use"): the training observations are serialized, and
// any synopsis can be rebuilt from them — including a different learner
// over the same history.
//
// Snapshot format v2 makes the file portable across processes. Alongside
// the points it records the symptom-space name table (dimension → metric
// name, from detect.SymptomSpace) and the fix catalogs of the target
// kinds that produced the experience. On import, every point vector is
// remapped by name into the importing process's own symptom space —
// dimensions are reordered, names the writer never measured read zero,
// and names the reader has never seen extend its space — so a knowledge
// base built by a fleet that registered target kinds as (replicated,
// auction) ranks fixes identically in a process that registered them as
// (auction, replicated).
//
// Version 1 files (and v2 files written by a process with an empty
// symptom space, e.g. pure-vector users that never built a harness) carry
// no name table and keep the historical same-order semantics: vectors are
// replayed positionally, so they are only portable between processes that
// construct their target kinds in the same order. kbtool convert can
// attach a name table to such files after the fact.

// Format versions of the on-disk snapshot.
const (
	// FormatV1 is the original format: raw aligned vectors, no name
	// table; loads are positional (same-order semantics).
	FormatV1 = 1
	// FormatV2 adds the symptom-space name table and per-target fix
	// catalogs; loads remap vectors by metric name.
	FormatV2 = 2
)

// ErrNotExportable reports a synopsis that implements Exporter but cannot
// currently surrender its training history — e.g. a Shared knowledge base
// over a base learner with no Export. Callers that persist knowledge bases
// should treat it as "saving would silently write an empty history".
var ErrNotExportable = errors.New("training history is not exportable")

// Exporter is implemented by synopses that can surrender their training
// observations. A non-nil error (typically wrapping ErrNotExportable)
// means the history exists but cannot be produced; persistence must fail
// loudly rather than write an empty knowledge base.
type Exporter interface {
	// Export returns a copy of the training observations in arrival
	// order (negatives last for learners that keep them).
	Export() ([]Point, error)
}

// TargetCatalog records one target kind's healing vocabulary inside a
// snapshot, so a knowledge base names the fault kinds and candidate
// fixes that were available to the process that wrote it even when read
// far from that process (or that binary). It describes the writer's
// registered vocabulary, not which kinds actually produced points —
// points do not record their target kind.
type TargetCatalog struct {
	// Description is the target kind's one-line summary.
	Description string `json:"description,omitempty"`
	// FaultKinds lists the kind's injectable failures in catalog order.
	FaultKinds []string `json:"fault_kinds,omitempty"`
	// CandidateFixes maps each fault kind to its candidate fixes in
	// preference order — the target-scoped analogue of the paper's
	// Table 1.
	CandidateFixes map[string][]string `json:"candidate_fixes,omitempty"`
}

// Snapshot is a decoded knowledge-base file: the training history of a
// synopsis plus the schema metadata that makes it portable. Point vectors
// are expressed in the file's own coordinate layout, described by
// Symptoms; Replay remaps them into a live symptom space.
type Snapshot struct {
	// Version is the format version (FormatV1 or FormatV2).
	Version int
	// Synopsis names the learner that produced the history ("merged"
	// when snapshots from different learners were folded together). The
	// history is learner-agnostic: any synopsis can replay it.
	Synopsis string
	// Symptoms is the name table: Symptoms[d] is the metric name of
	// point-vector dimension d. Empty for v1 files and for v2 files
	// written from an unnamed (empty) symptom space; such snapshots
	// replay positionally.
	Symptoms []string
	// Targets carries the fix catalogs of the target kinds registered in
	// the writing process, keyed by target kind name.
	Targets map[string]TargetCatalog
	// Seq is the writing knowledge base's publish sequence at capture
	// time (see Shared.Seq) — the version a federation peer is current to
	// after replaying this snapshot. Zero when the captured synopsis does
	// not version its writes (plain learners) or predates sequences.
	Seq uint64
	// Points is the training history in file coordinates.
	Points []Point
}

// snapshotWire is the JSON form of Snapshot.
type snapshotWire struct {
	Version  int                      `json:"version"`
	Name     string                   `json:"synopsis"`
	Symptoms []string                 `json:"symptoms,omitempty"`
	Targets  map[string]TargetCatalog `json:"targets,omitempty"`
	Seq      uint64                   `json:"seq,omitempty"`
	Points   []jsonPoint              `json:"points"`
}

type jsonPoint struct {
	X       []float64 `json:"x"`
	Fix     string    `json:"fix"`
	Target  string    `json:"target,omitempty"`
	Success bool      `json:"success"`
}

// fixByName resolves a serialized fix name.
func fixByName(name string) (catalog.FixID, bool) {
	for _, f := range catalog.FixIDs() {
		if f.String() == name {
			return f, true
		}
	}
	return catalog.FixNone, false
}

// SaveOptions parameterizes Capture.
type SaveOptions struct {
	// Space supplies the symptom-space name table recorded in the
	// snapshot; nil means detect.DefaultSymptomSpace, the space every
	// harness registers its target's metric schema into.
	Space *detect.SymptomSpace
	// Targets is recorded verbatim as the snapshot's per-target fix
	// catalogs; the selfheal facade fills it from the target registry.
	Targets map[string]TargetCatalog
}

// Capture builds the format-v2 Snapshot of a live synopsis: its training
// history plus the symptom-space name table (o.Space, by default the
// process-wide detect.DefaultSymptomSpace), so the file Encode writes
// stays portable across processes that register target kinds in
// different orders. Synopses whose history cannot be exported (see
// Exporter) return an error.
func Capture(s Synopsis, o SaveOptions) (*Snapshot, error) {
	ex, ok := s.(Exporter)
	if !ok {
		return nil, fmt.Errorf("synopsis: %s cannot export its training data", s.Name())
	}
	// Read the sequence before exporting: against racing writers the
	// captured seq may then undersell the exported history (a peer
	// re-fetches a point it already has, and dedup drops it), but it can
	// never oversell it (which would lose points for good).
	var seq uint64
	if sq, ok := s.(Sequenced); ok {
		seq = sq.Seq()
	}
	pts, err := ex.Export()
	if err != nil {
		return nil, fmt.Errorf("synopsis: exporting %s: %w", s.Name(), err)
	}
	space := o.Space
	if space == nil {
		space = detect.DefaultSymptomSpace
	}
	names := space.Names()
	if len(names) > 0 {
		for i := range pts {
			if len(pts[i].X) > len(names) {
				return nil, fmt.Errorf("synopsis: point %d has %d dimensions but the symptom space names only %d — it was not built in this space",
					i, len(pts[i].X), len(names))
			}
		}
	}
	return &Snapshot{
		Version:  FormatV2,
		Synopsis: s.Name(),
		Symptoms: names,
		Targets:  o.Targets,
		Seq:      seq,
		Points:   pts,
	}, nil
}

// Sequenced is implemented by knowledge bases that version their writes
// with a monotonic publish sequence (Shared). Capture records the
// sequence in the snapshot so tooling and federation peers can tell how
// current a file is.
type Sequenced interface {
	// Seq returns the current publish sequence.
	Seq() uint64
}

// Encode writes the snapshot as indented JSON.
func (snap *Snapshot) Encode(w io.Writer) error {
	wire := snapshotWire{
		Version:  snap.Version,
		Name:     snap.Synopsis,
		Symptoms: snap.Symptoms,
		Targets:  snap.Targets,
		Seq:      snap.Seq,
	}
	if wire.Version == 0 {
		wire.Version = FormatV2
	}
	for _, p := range snap.Points {
		wire.Points = append(wire.Points, jsonPoint{
			X: p.X, Fix: p.Action.Fix.String(), Target: p.Action.Target, Success: p.Success,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(wire)
}

// Decode parses a snapshot file without replaying it into a synopsis:
// the raw material for inspection, conversion, merging and diffing.
// Unknown versions, unresolvable fix names, and v2 vectors wider than
// their name table are rejected.
func Decode(r io.Reader) (*Snapshot, error) {
	var wire snapshotWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("synopsis: decoding snapshot: %w", err)
	}
	if wire.Version != FormatV1 && wire.Version != FormatV2 {
		return nil, fmt.Errorf("synopsis: unsupported snapshot version %d", wire.Version)
	}
	snap := &Snapshot{
		Version:  wire.Version,
		Synopsis: wire.Name,
		Symptoms: wire.Symptoms,
		Targets:  wire.Targets,
		Seq:      wire.Seq,
	}
	for i, jp := range wire.Points {
		fix, ok := fixByName(jp.Fix)
		if !ok {
			return nil, fmt.Errorf("synopsis: point %d has unknown fix %q", i, jp.Fix)
		}
		if len(snap.Symptoms) > 0 && len(jp.X) > len(snap.Symptoms) {
			return nil, fmt.Errorf("synopsis: point %d has %d dimensions but the name table covers %d",
				i, len(jp.X), len(snap.Symptoms))
		}
		snap.Points = append(snap.Points, Point{
			X:       jp.X,
			Action:  Action{Fix: fix, Target: jp.Target},
			Success: jp.Success,
		})
	}
	return snap, nil
}

// Replay folds the snapshot's history into a synopsis (which need not be
// the learner that produced it) in one batch, through AddBatch when the
// learner supports it, so refitting models pay one refit for the whole
// file. When the snapshot carries a name table, every vector is remapped
// by metric name into space (nil: detect.DefaultSymptomSpace) first, so
// the writer's target-registration order does not matter. Version-1
// files — and v2 files saved from an unnamed space — carry no name table
// and replay positionally: they rank fixes correctly only in a process
// that registered its target kinds in the same order as the writer
// (single-kind processes always agree).
func (snap *Snapshot) Replay(into Synopsis, space *detect.SymptomSpace) error {
	pts := snap.Points
	if len(snap.Symptoms) > 0 {
		if space == nil {
			space = detect.DefaultSymptomSpace
		}
		pts = make([]Point, len(snap.Points))
		for i, p := range snap.Points {
			p.X = space.Remap(snap.Symptoms, p.X)
			pts[i] = p
		}
	}
	AddAll(into, pts)
	return nil
}

// Export implements Exporter: successes in arrival order, then negatives.
func (s *NearestNeighbor) Export() ([]Point, error) {
	out := append([]Point(nil), s.ex.all...)
	return append(out, s.negatives...), nil
}

// Export implements Exporter.
func (s *KMeans) Export() ([]Point, error) { return append([]Point(nil), s.ex.all...), nil }

// Export implements Exporter.
func (s *AdaBoost) Export() ([]Point, error) { return append([]Point(nil), s.points...), nil }

// Export implements Exporter.
func (s *NaiveBayes) Export() ([]Point, error) { return append([]Point(nil), s.ex.all...), nil }
