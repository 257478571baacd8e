package experiments

import (
	"context"
	"testing"

	"selfheal"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// TestLoopLabelQuality is the label-noise regression guard for the Figure 4
// experiment: the healing loop's learned labels (self-found or
// administrator-provided) must overwhelmingly match ground truth, and
// nearly every injected fault must become SLO-visible. Label noise is the
// paper's "ambiguous and inaccurate data" problem (§5.2) — some is
// expected, but too much invalidates the learning experiments.
func TestLoopLabelQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("learning experiment")
	}
	syn := synopsis.NewNearestNeighbor()
	approach := core.NewFixSym(syn)
	gen := faults.NewGenerator(999+2007, LearningKinds()...)
	ctx := context.Background()

	perKind := map[string][2]int{} // injected, labeled
	clean, noisy, undetected := 0, 0, 0
	for i := 0; i < 80; i++ {
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(2007+int64(i)*101), selfheal.WithApproachInstance(approach))
		f := gen.Next()
		before := syn.TrainingSize()
		ep := sys.HealEpisode(ctx, f)
		pk := perKind[f.Kind().String()]
		pk[0]++
		if syn.TrainingSize() > before {
			pk[1]++
		}
		perKind[f.Kind().String()] = pk
		if syn.TrainingSize() == before {
			undetected++
			continue
		}
		fix, target := f.CorrectFix()
		want := core.Action{Fix: fix, Target: target}
		var got core.Action
		if ep.Escalated {
			got = want // administrator labels are correct by construction
		} else {
			for _, a := range ep.Attempts {
				if a.Success {
					got = a.Action
				}
			}
		}
		if got == want {
			clean++
		} else {
			noisy++
			t.Logf("noisy label: %s/%s want=%v got=%v", f.Kind(), f.Target(), want, got)
		}
	}
	t.Logf("clean=%d noisy=%d undetected=%d", clean, noisy, undetected)
	total := clean + noisy
	if total == 0 {
		t.Fatal("no labels produced")
	}
	if frac := float64(noisy) / float64(total); frac > 0.15 {
		t.Errorf("label noise %.0f%% exceeds the 15%% regression bound", 100*frac)
	}
	if undetected > 8 {
		t.Errorf("%d/80 faults never became SLO-visible; severity floors regressed", undetected)
	}
	for k, v := range perKind {
		if v[0] >= 3 && v[1] == 0 {
			t.Errorf("kind %s: %d injected, none produced a label", k, v[0])
		}
	}
}
