package targets_test

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/core"
	"selfheal/internal/targets"
	"selfheal/internal/targets/process"
)

// TestSpecHelperChild is not a test: it is the HTTP child the process
// target supervises in TestLocatorCandidatesAreApplicable, re-exec'd from
// this test binary.
func TestSpecHelperChild(t *testing.T) {
	if os.Getenv("SELFHEAL_SPEC_HELPER") != "1" {
		return
	}
	var addr string
	for i, a := range os.Args[:len(os.Args)-1] {
		if a == "-addr" {
			addr = os.Args[i+1]
		}
	}
	http.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	fmt.Fprintln(os.Stderr, http.ListenAndServe(addr, nil))
	os.Exit(1)
}

// builtinTargets returns one instance of each built-in target; the
// process target supervises a real child, so -short leaves it out.
func builtinTargets(t *testing.T) []targets.Target {
	auction, err := targets.NewAuction(targets.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := targets.NewReplicated(targets.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := []targets.Target{auction, repl}
	if testing.Short() {
		return out
	}
	proc, err := process.New(process.Config{
		Command:    []string{os.Args[0], "-test.run=TestSpecHelperChild$", "--"},
		Env:        []string{"SELFHEAL_SPEC_HELPER=1"},
		TickPeriod: 10 * time.Millisecond,
		Grace:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proc.Close() })
	return append(out, proc)
}

// TestLocatorCandidatesAreApplicable: on every built-in target, each
// action a locator or a diagnosis rule can produce is one the spec
// Declares and the target's Apply accepts, and each metric a locator
// reads or a rule's family matches is one the target reports: a name it
// lacks would be dropped silently when a harness resolves the spec, and
// the rule would never fire.
func TestLocatorCandidatesAreApplicable(t *testing.T) {
	for _, tg := range builtinTargets(t) {
		spec := tg.Spec()
		var names []string
		for _, src := range tg.Sources() {
			names = append(names, src.MetricNames()...)
		}
		reports := func(r targets.Symptom) bool { return slices.ContainsFunc(names, r.Matches) }
		check := func(a targets.Action, from string) {
			if !spec.Declares(a) {
				t.Errorf("%s: %s produces %v, which the spec does not declare", spec.Name, from, a)
			}
			if _, err := tg.Apply(a); err != nil {
				t.Errorf("%s: %s produces %v, which Apply refuses: %v", spec.Name, from, a, err)
			}
		}
		for fix, l := range spec.Locators {
			if len(l.Candidates) < 2 {
				t.Errorf("%s: %v locator has %d candidates, nothing to choose between", spec.Name, fix, len(l.Candidates))
			}
			for _, c := range l.Candidates {
				a := targets.Action{Fix: fix, Target: c.Target}
				check(a, "a locator")
				if len(c.Metrics) == 0 {
					t.Errorf("%s: %v has no metrics", spec.Name, a)
				}
				for _, m := range c.Metrics {
					if !slices.Contains(names, m) {
						t.Errorf("%s: %v reads %q, which the target does not report", spec.Name, a, m)
					}
				}
			}
		}
		// A rule's fix without a target takes each of its locator's
		// candidates, or none.
		produced := func(f targets.Action) []targets.Action {
			l, ok := spec.Locators[f.Fix]
			if f.Target != "" || !ok {
				return []targets.Action{f}
			}
			var out []targets.Action
			for _, c := range l.Candidates {
				out = append(out, targets.Action{Fix: f.Fix, Target: c.Target})
			}
			return out
		}
		d := spec.Diagnosis
		if len(d.Symptoms) == 0 || len(d.Manual) == 0 {
			t.Errorf("%s declares no symptom or manual rules", spec.Name)
		}
		var acts []targets.Action
		for _, r := range slices.Concat(d.Symptoms, d.Manual) {
			if !reports(r) {
				t.Errorf("%s: rule family %q matches no metric the target reports", spec.Name, r.Metric)
			}
			if r.Callee && len(d.Components) == 0 {
				t.Errorf("%s: rule %q names a callee's fix, but the target declares no component fixes", spec.Name, r.Metric)
			}
			acts = append(acts, r.Fixes...)
		}
		acts = append(acts, d.Components...)
		// The manual baseline's universal fallback.
		acts = append(acts, targets.Action{Fix: catalog.FixFullRestart})
		seen := map[targets.Action]bool{}
		for _, f := range acts {
			for _, a := range produced(f) {
				if !seen[a] {
					seen[a] = true
					check(a, "a diagnosis rule")
				}
			}
		}
	}
}

// TestFailoverToStandbyStopsLocatingTheDB: once failover-node(db) has
// promoted the standby, db.primary.capfactor reads the serving node's
// capacity factor, so a later episode's failover-node locator does not
// send the database back to the degraded primary.
func TestFailoverToStandbyStopsLocatingTheDB(t *testing.T) {
	ctx := context.Background()
	repl, err := targets.NewReplicated(targets.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewTargetHarness(repl, core.DefaultHarnessConfig())
	if _, _, ok := h.LabeledFailure(ctx, targets.NewPrimaryDegraded(0.25), 300); !ok {
		t.Fatal("degraded primary not detected")
	}
	settle, err := repl.Apply(targets.Action{Fix: catalog.FixFailoverNode, Target: "db"})
	if err != nil {
		t.Fatal(err)
	}
	h.StepN(int(settle))
	series := h.Coll.Series()
	if got := series.Row(series.Len() - 1)[series.Schema().MustIndex("db.primary.capfactor")]; got != 1 {
		t.Errorf("db.primary.capfactor reads %v with the standby serving, want 1", got)
	}
	if !h.RunUntilRecovered(ctx, 300) {
		t.Fatal("service not recovered on the standby")
	}
	fctx, _, ok := h.LabeledFailure(ctx, targets.NewReplicaLeak("app-1", 0.02), 600)
	if !ok {
		t.Fatal("replica leak not detected")
	}
	if target, ok := fctx.Localise(catalog.FixFailoverNode); ok && target == "db" {
		t.Error("a replica leak on the standby localises failover-node to db")
	}
}
