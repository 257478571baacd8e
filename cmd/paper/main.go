// Command paper regenerates the evaluation of "Toward Self-Healing
// Multitier Services" from live simulation: Table 1 (failures and candidate
// fixes, verified empirically), Table 2 (fix-identification approaches,
// measured), the adversarial-scenario sweep (library scenarios × learners),
// the §5 research-agenda ablations, Figures 1–2 (causes of failures and time
// to recover by cause, over three service profiles) and Figure 4 with
// Table 3 (synopsis accuracy and learning cost).
//
//	paper all                     # everything, paper-sized
//	paper -quick all              # smoke-sized Table 2 and Figure 4
//	paper table1 table2           # just those
//	paper -n 40 figure1 figure2   # 40 failures per service profile
//
// Artifacts print in the order listed by the usage message, each once,
// whatever order they are named in. Without -seed each artifact runs at
// the seed its published numbers came from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"selfheal/internal/experiments"
)

// artifact is one printable piece of the paper's evaluation. run is
// handed the seed to use, whether -quick was given, and -n.
type artifact struct {
	name string
	seed int64 // the seed its published numbers came from
	run  func(w io.Writer, seed int64, quick bool, n int)
}

var artifacts = []artifact{
	{"table1", 71, func(w io.Writer, seed int64, quick bool, n int) {
		fmt.Fprintln(w, experiments.RunTable1(seed).Format())
	}},
	{"table2", 71, func(w io.Writer, seed int64, quick bool, n int) {
		cfg := experiments.DefaultTable2Config()
		if quick {
			cfg = experiments.QuickTable2Config()
		}
		cfg.Seed = seed
		fmt.Fprintln(w, experiments.RunTable2(cfg).Format())
	}},
	{"scenarios", 71, func(w io.Writer, seed int64, quick bool, n int) {
		fmt.Fprintln(w, experiments.RunScenarioSweep(seed).Format())
	}},
	{"ablations", 71, func(w io.Writer, seed int64, quick bool, n int) {
		fmt.Fprintln(w, experiments.RunHybridAblation(seed, 16).Format())
		fmt.Fprintln(w, experiments.RunOnlineDriftAblation(seed, 24).Format())
		fmt.Fprintln(w, experiments.RunConfidenceAblation(seed, 12).Format())
		fmt.Fprintln(w, experiments.RunNegativeDataAblation(seed, 12).Format())
		fmt.Fprintln(w, experiments.RunProactiveAblation(seed, 2400).Format())
		fmt.Fprintln(w, experiments.RunControlAblation(seed).Format())
	}},
	{"figure1", 18, func(w io.Writer, seed int64, quick bool, n int) {
		fmt.Fprintln(w, experiments.RunFigure1(seed, n).Format())
	}},
	{"figure2", 18, func(w io.Writer, seed int64, quick bool, n int) {
		fmt.Fprintln(w, experiments.RunFigure2(seed, n).Format())
		fmt.Fprintln(w, "shape check: operator-caused failures should dominate Figure 1 for the")
		fmt.Fprintln(w, "Online/Content profiles and take longest to recover in Figure 2.")
	}},
	{"figure4", 2007, figure4},
}

// figure4 prints Figure 4 and Table 3: the FixSym loop driven with
// AdaBoost-60, nearest-neighbor and k-means synopses against a fixed
// simulator-generated test set (paper-sized: 1000 points, 100 fixes).
func figure4(w io.Writer, seed int64, quick bool, _ int) {
	cfg := experiments.DefaultFigure4Config()
	if quick {
		cfg = experiments.QuickFigure4Config()
	}
	cfg.Seed = seed
	fmt.Fprintf(w, "paper: test set %d, target %d correct fixes (seed %d)\n\n", cfg.TestSize, cfg.TargetFixes, cfg.Seed)
	res := experiments.RunFigure4(cfg)
	fmt.Fprintln(w, res.Format())
	fmt.Fprintln(w, experiments.PlotCurves(res.Curves, 72, 18))

	fmt.Fprintln(w, "shape checks against the paper:")
	ada, nn, km := res.Curves[0], res.Curves[1], res.Curves[2]
	fmt.Fprintf(w, "  AdaBoost reaches %.1f%% final; NN %.1f%%; k-means %.1f%% (paper: 98.5 / 95.5 / 87)\n",
		100*ada.FinalAcc, 100*nn.FinalAcc, 100*km.FinalAcc)
	nnTime := nn.TimeToReport
	if nnTime < 1 {
		nnTime = 1
	}
	fmt.Fprintf(w, "  learning-time ratio AdaBoost/NN at %d fixes: %.0fx (paper: ~19x)\n",
		cfg.ReportAt, float64(ada.TimeToReport)/float64(nnTime))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "deterministic seed (default: each artifact's published seed)")
	quick := fs.Bool("quick", false, "smoke-sized Table 2 and Figure 4")
	n := fs.Int("n", 120, "failures injected per service profile in Figures 1 and 2")
	names := "all"
	for i := len(artifacts) - 1; i >= 0; i-- {
		names = artifacts[i].name + ", " + names
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paper [-seed N] [-quick] [-n N] artifact...\nartifacts: %s\n", names)
		fs.PrintDefaults()
	}

	// Flags may come before, between or after the artifact names.
	want := make(map[string]bool)
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		name := fs.Arg(0)
		args = fs.Args()[1:]
		matched := false
		for _, a := range artifacts {
			if name == "all" || name == a.name {
				want[a.name] = true
				matched = true
			}
		}
		if !matched {
			fmt.Fprintf(stderr, "paper: unknown artifact %q (artifacts: %s)\n", name, names)
			return 2
		}
	}
	if len(want) == 0 {
		fs.Usage()
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "paper: -n %d: need at least one failure per profile\n", *n)
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	for _, a := range artifacts {
		if !want[a.name] {
			continue
		}
		s := a.seed
		if seedSet {
			s = *seed
		}
		a.run(stdout, s, *quick, *n)
	}
	return 0
}
