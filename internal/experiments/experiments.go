// Package experiments contains one harness per table and figure of the
// paper's evaluation, plus the ablation studies of its research agenda
// (§5). Every harness regenerates the corresponding artifact from live
// simulation — nothing is hard-coded — and returns a result struct whose
// Format method prints the same rows/series the paper reports.
//
// The package is a client of the facade, internal only so it is not
// importable API: every environment is a selfheal.System built with
// selfheal.New and driven through HealEpisode, RunScenario and the
// targets.Target vocabulary, exactly as a program outside this module
// would. cmd/paper prints the artifacts.
//
// The reproduction target is shape, not absolute numbers: who wins, by
// roughly what factor, and where the crossovers fall.
package experiments

import (
	"context"
	"time"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// Every episode of every experiment runs on a fresh system of its own
// (selfheal.New at the episode's seed), mirroring the paper's simulator,
// which "generates time-series data corresponding to different failed and
// working service states": no state leaks from one failure to the next,
// and every episode sees an identically-provisioned service.

// inject strikes sys with f outside a healing episode.
func inject(sys *selfheal.System, f selfheal.Fault) {
	if err := sys.Target().Inject(f); err != nil {
		panic(err) // an auction fault on the auction target is never refused
	}
}

// newHybrid builds the registered hybrid, the approach the product ships.
func newHybrid() selfheal.Approach {
	a, err := selfheal.NewApproach(selfheal.ApproachHybrid)
	if err != nil {
		panic(err) // a built-in kind is always registered
	}
	return a
}

// LabeledPoint generates one ground-truth-labeled failure observation on a
// fresh environment. ok is false when the fault never became SLO-visible.
func LabeledPoint(seed int64, f faults.Fault) (synopsis.Point, bool) {
	ctx := context.Background()
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed))
	fctx, label, ok := sys.LabeledFailure(ctx, f, 2500)
	if !ok {
		return synopsis.Point{}, false
	}
	return synopsis.Point{X: fctx.Features(), Action: label, Success: true}, true
}

// BuildTestSet generates size labeled failure points drawn from the given
// fault kinds — the paper's "fixed test set comprising 1000 failure states
// (symptoms) and correct fixes generated by the simulator".
func BuildTestSet(seed int64, size int, kinds []catalog.FaultKind) []synopsis.Point {
	gen := faults.NewGenerator(seed, kinds...)
	out := make([]synopsis.Point, 0, size)
	for i := 0; len(out) < size; i++ {
		p, ok := LabeledPoint(seed+int64(i)*13+1, gen.Next())
		if ok {
			out = append(out, p)
		}
		if i > size*4 {
			break // safety: some generator configuration never detects
		}
	}
	return out
}

// LearningKinds are the fault kinds used by the Figure 4 / Table 3
// learning experiments: every Table 1 failure type.
func LearningKinds() []catalog.FaultKind {
	return []catalog.FaultKind{
		catalog.FaultDeadlock,
		catalog.FaultException,
		catalog.FaultAging,
		catalog.FaultStaleStats,
		catalog.FaultBlockContention,
		catalog.FaultBufferContention,
		catalog.FaultBottleneck,
		catalog.FaultCodeBug,
	}
}

// timed wraps a synopsis and accumulates the wall-clock time spent inside
// it — the "time to generate fixes" cost Table 3 reports.
type timed struct {
	inner   synopsis.Synopsis
	elapsed time.Duration
}

func (t *timed) Name() string                      { return t.inner.Name() }
func (t *timed) TrainingSize() int                 { return t.inner.TrainingSize() }
func (t *timed) Export() ([]synopsis.Point, error) { return t.inner.Export() }

func (t *timed) Add(p synopsis.Point) {
	start := time.Now()
	t.inner.Add(p)
	t.elapsed += time.Since(start)
}

func (t *timed) AddBatch(ps []synopsis.Point) {
	start := time.Now()
	t.inner.AddBatch(ps)
	t.elapsed += time.Since(start)
}

func (t *timed) Suggest(x []float64, filter *synopsis.ActionFilter) (synopsis.Suggestion, bool) {
	start := time.Now()
	s, ok := t.inner.Suggest(x, filter)
	t.elapsed += time.Since(start)
	return s, ok
}

func (t *timed) RankK(x []float64, k int) []synopsis.Suggestion {
	start := time.Now()
	r := t.inner.RankK(x, k)
	t.elapsed += time.Since(start)
	return r
}

// perDetected is n per detected failure of s (0 when none was detected):
// the first-right, escalation and attempt rates Table 2 and the ablations
// report.
func perDetected(n int, s selfheal.FleetStats) float64 {
	if s.Detected == 0 {
		return 0
	}
	return float64(n) / float64(s.Detected)
}
