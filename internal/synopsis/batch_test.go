package synopsis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"selfheal/internal/catalog"
)

// streamPoints returns a deterministic mixed stream of successful and
// failed observations over several fixes and targets, spread over distinct
// symptom clusters so learners have something to separate.
func streamPoints(seed int64, n int) []Point {
	rng := rand.New(rand.NewSource(seed))
	fixes := []catalog.FixID{
		catalog.FixUpdateStats, catalog.FixMicrorebootEJB,
		catalog.FixRebootAppTier, catalog.FixKillHungQuery,
	}
	out := make([]Point, n)
	for i := range out {
		c := rng.Intn(len(fixes))
		x := make([]float64, 6)
		for d := range x {
			x[d] = float64(c)*4 + rng.NormFloat64()
		}
		out[i] = Point{
			X:       x,
			Action:  Action{Fix: fixes[c], Target: fmt.Sprintf("t%d", c)},
			Success: rng.Intn(5) != 0, // ~20% failed attempts
		}
	}
	return out
}

// learnersUnderTest builds one fresh instance of every built-in learner.
func learnersUnderTest() map[string]func() Learner {
	return map[string]func() Learner{
		"nn": func() Learner { return NewNearestNeighbor() },
		"nn-negatives": func() Learner {
			s := NewNearestNeighbor()
			s.UseNegatives = true
			return s
		},
		"kmeans":   func() Learner { return NewKMeans() },
		"adaboost": func() Learner { return NewAdaBoost(12) },
		"bayes":    func() Learner { return NewNaiveBayes() },
	}
}

// TestAddBatchMatchesSequentialAdd: for every learner, folding a stream
// through AddBatch chunks must land in the same end state as one Add per
// point — same training size, same suggestions, same ranking.
func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	pts := streamPoints(3, 60)
	probes := streamPoints(4, 10)
	for name, fresh := range learnersUnderTest() {
		t.Run(name, func(t *testing.T) {
			seq := fresh()
			for _, p := range pts {
				seq.Add(p)
			}
			bat := fresh()
			for lo := 0; lo < len(pts); lo += 7 {
				hi := lo + 7
				if hi > len(pts) {
					hi = len(pts)
				}
				bat.AddBatch(pts[lo:hi])
			}
			if seq.TrainingSize() != bat.TrainingSize() {
				t.Fatalf("TrainingSize: sequential %d, batched %d", seq.TrainingSize(), bat.TrainingSize())
			}
			for _, pr := range probes {
				sa, oka := seq.Suggest(pr.X, nil)
				sb, okb := bat.Suggest(pr.X, nil)
				if oka != okb || sa != sb {
					t.Errorf("Suggest(%v): sequential=(%v,%v) batched=(%v,%v)", pr.X, sa, oka, sb, okb)
				}
				if ra, rb := seq.RankK(pr.X, -1), bat.RankK(pr.X, -1); !reflect.DeepEqual(ra, rb) {
					t.Errorf("RankK(%v, -1): sequential=%v batched=%v", pr.X, ra, rb)
				}
			}
		})
	}
}

// TestCloneIsIndependent: a clone must be a stable snapshot — training the
// original afterwards must not leak into the clone, and training the
// clone must not leak back.
func TestCloneIsIndependent(t *testing.T) {
	before := streamPoints(5, 40)
	after := streamPoints(6, 40)
	probes := streamPoints(7, 12)
	for name, fresh := range learnersUnderTest() {
		t.Run(name, func(t *testing.T) {
			orig := fresh()
			for _, p := range before {
				orig.Add(p)
			}
			snap := orig.Clone()
			if snap == nil {
				t.Fatalf("%s Clone returned nil", orig.Name())
			}
			type view struct {
				sug Suggestion
				ok  bool
				rk  []Suggestion
			}
			capture := func(s Synopsis) []view {
				out := make([]view, len(probes))
				for i, pr := range probes {
					sug, ok := s.Suggest(pr.X, nil)
					out[i] = view{sug: sug, ok: ok, rk: s.RankK(pr.X, -1)}
				}
				return out
			}
			wantSnap := capture(snap)
			wantSize := snap.TrainingSize()

			// Mutating the original must not move the snapshot.
			for _, p := range after {
				orig.Add(p)
			}
			if got := capture(snap); !reflect.DeepEqual(got, wantSnap) {
				t.Errorf("snapshot drifted after training the original")
			}
			if snap.TrainingSize() != wantSize {
				t.Errorf("snapshot TrainingSize moved: %d -> %d", wantSize, snap.TrainingSize())
			}

			// Mutating the snapshot must not move the original.
			wantOrig := capture(orig)
			for _, p := range streamPoints(8, 20) {
				snap.Add(p)
			}
			if got := capture(orig); !reflect.DeepEqual(got, wantOrig) {
				t.Errorf("original drifted after training the clone")
			}
		})
	}
}

// TestCloneSurvivesForget: Forget rebuilds internal indexes; a snapshot
// taken before must keep serving its full view.
func TestCloneSurvivesForget(t *testing.T) {
	pts := streamPoints(9, 50)
	probes := streamPoints(10, 8)
	orig := NewNearestNeighbor()
	for _, p := range pts {
		orig.Add(p)
	}
	snap := orig.Clone()
	size := snap.TrainingSize()
	var want []Suggestion
	for _, pr := range probes {
		want = append(want, snap.RankK(pr.X, -1)...)
	}
	orig.Forget(5)
	var got []Suggestion
	for _, pr := range probes {
		got = append(got, snap.RankK(pr.X, -1)...)
	}
	if snap.TrainingSize() != size || !reflect.DeepEqual(got, want) {
		t.Error("snapshot drifted after the original forgot")
	}
}
