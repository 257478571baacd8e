package synopsis

import (
	"fmt"

	"selfheal/internal/detect"
)

// Persistence turns a learned synopsis into the portable knowledge base
// the paper's §5.1 asks for ("generate a knowledge-base that a
// practitioner can use"): the training observations are serialized, and
// any synopsis can be rebuilt from them — including a different learner
// over the same history.
//
// A snapshot is the delta since zero (see Delta): the points, the
// publish sequence they are current to, and the symptom-space name table
// (dimension → metric name, from detect.SymptomSpace). On import, every
// point vector is remapped by name into the importing process's own
// symptom space — dimensions are reordered, names the writer never
// measured read zero, and names the reader has never seen extend its
// space — so a knowledge base built by a fleet that registered target
// kinds as (replicated, auction) ranks fixes identically in a process
// that registered them as (auction, replicated).
//
// A snapshot written by a process with an empty symptom space (a
// pure-vector user that never built a harness) carries no name table and
// is replayed positionally: it is only portable between processes that
// construct their target kinds in the same order.

// SaveOptions parameterizes Capture.
type SaveOptions struct {
	// Space supplies the symptom-space name table recorded in the
	// snapshot; nil means detect.DefaultSymptomSpace, the space every
	// harness registers its target's metric schema into.
	Space *detect.SymptomSpace
}

// Capture builds the snapshot of a live synopsis — the delta since zero:
// its training history in Export's order, the publish sequence (a Shared
// knowledge base's; zero for a bare learner) and the symptom-space name
// table (o.Space, by default the process-wide detect.DefaultSymptomSpace),
// so the file Encode writes stays portable across processes that register
// target kinds in different orders. An Export error is returned.
func Capture(s Synopsis, o SaveOptions) (*Delta, error) {
	// Read the sequence before exporting: against racing writers the
	// captured seq may then undersell the exported history (a peer
	// re-fetches a point it already has, and dedup drops it), but it can
	// never oversell it (which would lose points for good).
	var seq uint64
	if sh, ok := s.(*Shared); ok {
		seq = sh.Seq()
	}
	pts, err := s.Export()
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
	return &Delta{Seq: seq, Symptoms: names, Points: pts}, nil
}

// Replay folds the delta's points into a synopsis (which need not be the
// learner that produced them) in one AddBatch, so refitting models pay
// one refit for the whole file. When the delta carries a name table,
// every vector is remapped by metric name into space (nil:
// detect.DefaultSymptomSpace) first, so the writer's target-registration
// order does not matter. A delta without a name table replays
// positionally: it ranks fixes correctly only in a process that
// registered its target kinds in the same order as the writer
// (single-kind processes always agree).
func (d *Delta) Replay(into Synopsis, space *detect.SymptomSpace) error {
	pts := d.Points
	if len(d.Symptoms) > 0 {
		if space == nil {
			space = detect.DefaultSymptomSpace
		}
		pts = make([]Point, len(d.Points))
		for i, p := range d.Points {
			p.X = space.Remap(d.Symptoms, p.X)
			pts[i] = p
		}
	}
	into.AddBatch(pts)
	return nil
}

// Export implements Synopsis: successes in arrival order, then negatives.
func (s *NearestNeighbor) Export() ([]Point, error) {
	out := append([]Point(nil), s.ex.all...)
	return append(out, s.negatives...), nil
}

// Export implements Synopsis.
func (s *KMeans) Export() ([]Point, error) { return append([]Point(nil), s.ex.all...), nil }

// Export implements Synopsis.
func (s *AdaBoost) Export() ([]Point, error) { return append([]Point(nil), s.points...), nil }

// Export implements Synopsis.
func (s *NaiveBayes) Export() ([]Point, error) { return append([]Point(nil), s.ex.all...), nil }
