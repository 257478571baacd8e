package synopsis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Compaction is the bounded-memory mode of a shared knowledge base. A
// long-lived daemon's KB only ever grows: every write appends to the
// arrival log, and most of what accumulates is superseded — exact
// duplicates relayed back by federation peers, and near-identical symptom
// vectors of the same action re-observed episode after episode.
// Compaction reclaims that memory without giving up the convergence
// story:
//
//   - Exact duplicates (same CanonicalKey) always collapse to their first
//     occurrence — precisely the dedup synopsis.Merge applies, so a
//     compacted KB ranks fixes byte-identically to the Merge of its own
//     snapshots (the invariant the property test pins).
//   - With MergeRadius > 0, an observation whose vector lies within
//     MergeRadius (L2) of an earlier kept observation with the same
//     action and outcome is superseded knowledge and dropped; the kept
//     point is its representative.
//   - With MaxPoints > 0 the KB holds at most MaxPoints observations at
//     every externally-observable moment: a write that pushes the log
//     past the cap compacts before it returns. Eviction is oldest-first,
//     failures before successes, and never drops a fix's last successful
//     exemplar — the bounded-memory mode must not forget the only
//     exemplar that makes a fix suggestible.
//
// Compaction is one publish: the sequence advances and the arrival log is
// rewritten as the surviving set under the new sequence, so a federation
// peer whose cursor predates the compaction simply re-pulls the full
// (compacted) history and its own dedup absorbs the overlap — the
// snapshot GC costs bandwidth, never knowledge.
type Compaction struct {
	// MaxPoints caps the retained observations (0: no cap; compaction
	// runs only on explicit Compact calls). The cap is honored whenever
	// it leaves room for one successful exemplar of every distinct
	// action; past that, each action's last success stays.
	MaxPoints int
	// MergeRadius merges near-duplicate observations of one action and
	// outcome (L2 distance in canonical coordinates). 0 merges exact
	// duplicates only — the identity-preserving mode.
	MergeRadius float64
}

// compactTargetDivisor sets the hysteresis: a cap-triggered compaction
// shrinks to 3/4 of MaxPoints so the next quarter-cap of writes is free.
const compactTargetDivisor = 4

// Validate rejects a configuration no compaction can honor: a merge
// radius that is not a finite distance ≥ 0, or a negative cap.
func (c Compaction) Validate() error {
	if !(c.MergeRadius >= 0) || math.IsInf(c.MergeRadius, 1) {
		return fmt.Errorf("synopsis: compaction merge radius %v is not a finite distance >= 0", c.MergeRadius)
	}
	if c.MaxPoints < 0 {
		return fmt.Errorf("synopsis: negative compaction cap %d", c.MaxPoints)
	}
	return nil
}

// classKey identifies a point's merge class: same action, same outcome.
func classKey(p Point) string {
	return p.Action.Key() + "|" + strconv.FormatBool(p.Success)
}

// cellKey quantizes a canonical vector to its merge-grid cell: candidate
// representatives are only looked up in the same cell, which keeps the
// merge pass near-linear. Only points verified within MergeRadius are
// actually merged, so the grid makes the pass conservative (a near-dup
// straddling a cell boundary survives), never wrong.
func cellKey(x []float64, radius float64) string {
	var b strings.Builder
	for _, v := range x {
		b.WriteString(strconv.FormatInt(int64(math.Floor(v/radius)), 10))
		b.WriteByte(',')
	}
	return b.String()
}

// CompactPoints returns the compacted form of an arrival-ordered history:
// exact duplicates collapse to their first occurrence, near-duplicates
// within cfg.MergeRadius of a kept point of the same class are dropped,
// and — when target > 0 and the survivors still exceed it — the oldest
// points are evicted (failures first, then successes whose action retains
// another success) down to target. The result preserves arrival order and
// is deterministic in the input order.
func CompactPoints(ps []Point, cfg Compaction, target int) []Point {
	seen := make(map[string]struct{}, len(ps))
	// cells maps merge class -> grid cell -> kept canonical vectors.
	var cells map[string]map[string][][]float64
	if cfg.MergeRadius > 0 {
		cells = make(map[string]map[string][][]float64)
	}
	kept := make([]Point, 0, len(ps))
	for _, p := range ps {
		canon := trimZeros(p.X)
		key := CanonicalKey(p)
		if _, dup := seen[key]; dup {
			continue
		}
		if cfg.MergeRadius > 0 {
			cls := classKey(p)
			byCell := cells[cls]
			if byCell == nil {
				byCell = make(map[string][][]float64)
				cells[cls] = byCell
			}
			cell := cellKey(canon, cfg.MergeRadius)
			superseded := false
			for _, rep := range byCell[cell] {
				if euclidean(canon, rep) <= cfg.MergeRadius {
					superseded = true
					break
				}
			}
			if superseded {
				continue
			}
			byCell[cell] = append(byCell[cell], canon)
		}
		seen[key] = struct{}{}
		kept = append(kept, p)
	}
	if target <= 0 || len(kept) <= target {
		return kept
	}
	return evictOldest(kept, target)
}

// evictOldest drops points oldest-first until len <= target: failures go
// first, then successes whose action still has another success among the
// survivors. Arrival order is preserved.
func evictOldest(kept []Point, target int) []Point {
	drop := make([]bool, len(kept))
	over := len(kept) - target
	for i := 0; i < len(kept) && over > 0; i++ {
		if !kept[i].Success {
			drop[i] = true
			over--
		}
	}
	if over > 0 {
		perAction := make(map[string]int)
		for i, p := range kept {
			if p.Success && !drop[i] {
				perAction[p.Action.Key()]++
			}
		}
		for i := 0; i < len(kept) && over > 0; i++ {
			if drop[i] || !kept[i].Success {
				continue
			}
			ak := kept[i].Action.Key()
			if perAction[ak] <= 1 {
				continue
			}
			perAction[ak]--
			drop[i] = true
			over--
		}
	}
	out := kept[:0:0]
	for i, p := range kept {
		if !drop[i] {
			out = append(out, p)
		}
	}
	return out
}
