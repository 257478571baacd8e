package core_test

import (
	"context"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/metrics"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
)

// locContext hand-builds a failure context over every metric spec's
// locators read: val gives each metric's symptom z and its live value.
func locContext(spec targets.Spec, val func(metric string) float64) *core.FailureContext {
	var names []string
	seen := map[string]bool{}
	for _, l := range spec.Locators {
		for _, c := range l.Candidates {
			for _, m := range c.Metrics {
				if !seen[m] {
					seen[m] = true
					names = append(names, m)
				}
			}
		}
	}
	schema := metrics.NewSchema(names)
	row := make([]float64, len(names))
	for i, m := range names {
		row[i] = val(m)
	}
	recent := metrics.NewSeries(schema)
	recent.Append(0, row)
	return &core.FailureContext{
		Symptom:  row,
		Schema:   schema,
		Recent:   recent,
		History:  recent,
		Locators: core.ResolveLocators(spec.Locators, schema),
	}
}

// strong and mild are a value that speaks for a candidate under rule r and
// one that speaks for it less.
func strong(r targets.LocateRule) float64 {
	switch r {
	case targets.LargestAbsZ:
		return -4 // |z| reads a collapse as loudly as a rise
	case targets.LowestZ:
		return -4
	case targets.HighestLatest:
		return 0.95
	}
	return 4
}

func mild(r targets.LocateRule) float64 {
	if r == targets.LowestZ {
		return -1
	}
	return 0.3
}

// TestLocatorsPickTheirTarget: every declared locator of the auction and
// replicated targets names the candidate any one of whose metrics speaks
// loudest, gives ties to the first candidate in declared order, and
// abstains on flat evidence and on evidence in the wrong direction.
func TestLocatorsPickTheirTarget(t *testing.T) {
	for _, spec := range []targets.Spec{targets.AuctionSpec(), targets.ReplicatedSpec()} {
		for fix, l := range spec.Locators {
			for _, c := range l.Candidates {
				for _, loud := range c.Metrics {
					ctx := locContext(spec, func(m string) float64 {
						if m == loud {
							return strong(l.Rule)
						}
						return mild(l.Rule)
					})
					if got, ok := ctx.Localise(fix); !ok || got != c.Target {
						t.Errorf("%s %v, %s loudest: localised %q %v, want %q", spec.Name, fix, loud, got, ok, c.Target)
					}
				}
			}
			tie := locContext(spec, func(string) float64 { return strong(l.Rule) })
			if got, ok := tie.Localise(fix); !ok || got != l.Candidates[0].Target {
				t.Errorf("%s %v, all tied: localised %q %v, want the first candidate %q", spec.Name, fix, got, ok, l.Candidates[0].Target)
			}
			flat := locContext(spec, func(string) float64 { return 0 })
			if got, ok := flat.Localise(fix); ok {
				t.Errorf("%s %v, flat evidence: localised %q, want an abstention", spec.Name, fix, got)
			}
			if l.Rule == targets.LargestZ || l.Rule == targets.LowestZ {
				wrong := locContext(spec, func(string) float64 { return -strong(l.Rule) })
				if got, ok := wrong.Localise(fix); ok {
					t.Errorf("%s %v, every z the wrong way: localised %q, want an abstention", spec.Name, fix, got)
				}
			}
		}
	}
	if got, ok := locContext(targets.AuctionSpec(), func(string) float64 { return 4 }).Localise(catalog.FixRestoreConfig); ok {
		t.Errorf("restore-config has no locator, yet localised %q", got)
	}
}

// TestFixSymLocalisesThenWalks: FixSym sends the fix its synopsis ranks
// first to the localised target, then walks the fix's stored exemplars
// nearest first; without locators it returns Suggest's action exactly.
func TestFixSymLocalisesThenWalks(t *testing.T) {
	ctx := locContext(targets.AuctionSpec(), func(m string) float64 {
		if m == "db.table.items.lockms" {
			return 4
		}
		return 0
	})
	near := append([]float64(nil), ctx.Symptom...)
	far := append([]float64(nil), ctx.Symptom...)
	far[0] += 3
	repart := func(table string) core.Action { return core.Action{Fix: catalog.FixRepartitionTable, Target: table} }
	syn := synopsis.NewNearestNeighbor()
	syn.Add(synopsis.Point{X: near, Action: repart("users"), Success: true})
	syn.Add(synopsis.Point{X: far, Action: repart("bids"), Success: true})
	fs := core.NewFixSym(syn)

	var tried []core.Action
	for _, want := range []core.Action{repart("items"), repart("users"), repart("bids")} {
		got, _, ok := fs.Recommend(ctx, tried)
		if !ok || got != want {
			t.Fatalf("after %v: recommended %v %v, want %v", tried, got, ok, want)
		}
		tried = append(tried, got)
	}
	if got, _, ok := fs.Recommend(ctx, tried); ok {
		t.Errorf("after %v: recommended %v, want nothing", tried, got)
	}

	ctx.Locators = nil
	sug, _ := syn.Suggest(ctx.Features(), nil)
	if got, conf, ok := fs.Recommend(ctx, nil); !ok || got != sug.Action || conf != sug.Confidence {
		t.Errorf("without locators: recommended %v %.4g, Suggest says %v %.4g", got, conf, sug.Action, sug.Confidence)
	}
}

// TestFixSymLearnsTheLocalisedAction: on a live episode FixSym repartitions
// the contended table its metrics point at, not the table of the only
// stored exemplar, and the synopsis learns the action that healed.
func TestFixSymLearnsTheLocalisedAction(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	syn := synopsis.NewNearestNeighbor()
	users := core.Action{Fix: catalog.FixRepartitionTable, Target: "users"}
	syn.Add(synopsis.Point{X: []float64{0}, Action: users, Success: true})
	hl := core.NewHealer(h, core.NewFixSym(syn), core.DefaultHealerConfig())
	ep := hl.RunEpisode(context.Background(), faults.NewBlockContention("items", 250))
	items := core.Action{Fix: catalog.FixRepartitionTable, Target: "items"}
	if !ep.Detected || len(ep.Attempts) == 0 {
		t.Fatalf("episode detected %v with %d attempts", ep.Detected, len(ep.Attempts))
	}
	if a := ep.Attempts[0]; a.Action != items || !a.Success {
		t.Fatalf("first attempt %v success %v, want %v to heal", a.Action, a.Success, items)
	}
	if sug, ok := syn.Suggest([]float64{0}, synopsis.ExcludeActions(users)); !ok || sug.Action != items {
		t.Errorf("synopsis holds %v %v, want the localised %v", sug.Action, ok, items)
	}
}

// scriptedApproach recommends its actions in order and records what it
// is taught.
type scriptedApproach struct {
	actions  []core.Action
	observed []core.Observation
}

func (s *scriptedApproach) Name() string { return "scripted" }

func (s *scriptedApproach) Recommend(_ *core.FailureContext, tried []core.Action) (core.Action, float64, bool) {
	if len(tried) >= len(s.actions) {
		return core.Action{}, 0, false
	}
	return s.actions[len(tried)], 1, true
}

func (s *scriptedApproach) Observe(ctx *core.FailureContext, a core.Action, ok bool) {
	s.observed = append(s.observed, core.Observation{Ctx: ctx, Action: a, Success: ok})
}

// TestRefusedAttemptFailsAtOnce: an action the target's Apply refuses is a
// failed attempt on the spot — no check window runs, so a recovery during
// one cannot credit it — and the approach is taught the failure.
func TestRefusedAttemptFailsAtOnce(t *testing.T) {
	h := core.NewHarness(core.DefaultHarnessConfig())
	refused := core.Action{Fix: catalog.FixMicrorebootEJB, Target: "NoSuchBean"}
	right := core.Action{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"}
	a := &scriptedApproach{actions: []core.Action{refused, right}}
	hl := core.NewHealer(h, a, core.DefaultHealerConfig())
	ep := hl.RunEpisode(context.Background(), faults.NewDeadlock("ItemBean"))
	if len(ep.Attempts) != 2 {
		t.Fatalf("%d attempts, want 2", len(ep.Attempts))
	}
	first, second := ep.Attempts[0], ep.Attempts[1]
	if first.Success {
		t.Error("the refused attempt was recorded as a success")
	}
	if second.AppliedAt != first.AppliedAt {
		t.Errorf("the refused attempt took %d ticks, want none", second.AppliedAt-first.AppliedAt)
	}
	if !second.Success {
		t.Error("the right fix after it did not heal")
	}
	if len(a.observed) == 0 || a.observed[0].Action != refused || a.observed[0].Success {
		t.Errorf("approach was taught %+v first, want %v failed", a.observed, refused)
	}
}
