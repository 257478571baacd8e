package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"selfheal"
	"selfheal/internal/core"
	"selfheal/internal/faults"
	"selfheal/internal/synopsis"
)

// Figure4Config parameterizes the synopsis-comparison experiment of the
// paper's Figure 4 and Table 3.
type Figure4Config struct {
	Seed int64
	// TestSize is the fixed test set size (the paper used 1000).
	TestSize int
	// TargetFixes is how many correct fixes each learning run accumulates
	// (the paper's x-axis runs to ~100).
	TargetFixes int
	// AdaBoostT is the ensemble size (the paper's optimal value is 60).
	AdaBoostT int
	// ReportAt is the training size Table 3 reports time/accuracy at (50).
	ReportAt int
}

// DefaultFigure4Config mirrors the paper's setup.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{Seed: 2007, TestSize: 1000, TargetFixes: 100, AdaBoostT: 60, ReportAt: 50}
}

// QuickFigure4Config is a scaled-down configuration for tests and smoke
// runs.
func QuickFigure4Config() Figure4Config {
	return Figure4Config{Seed: 2008, TestSize: 120, TargetFixes: 30, AdaBoostT: 60, ReportAt: 20}
}

// LearningCurve is one synopsis's trajectory: accuracy on the fixed test
// set after every successful fix (Figure 4), plus the Table 3 cost numbers.
type LearningCurve struct {
	Synopsis string
	// X[i] is the number of correct fixes learned; Y[i] the test accuracy.
	X []int
	Y []float64
	// TimeToReport is the cumulative synopsis compute time when ReportAt
	// correct fixes had been learned; AccAtReport the accuracy there.
	// WallAtReport is the loop's total wall time to that point (simulation
	// + healing + learning) — the paper's Table 3 likely measured this
	// inclusive figure.
	TimeToReport time.Duration
	WallAtReport time.Duration
	AccAtReport  float64
	// WallTime is the whole run's wall time (simulation + learning).
	WallTime time.Duration
	FinalAcc float64
}

// AccuracyAt returns the accuracy at the checkpoint closest below or equal
// to n correct fixes.
func (c *LearningCurve) AccuracyAt(n int) float64 {
	acc := 0.0
	for i, x := range c.X {
		if x <= n {
			acc = c.Y[i]
		}
	}
	return acc
}

// Figure4Result holds the three curves plus the shared test set size.
type Figure4Result struct {
	Config Figure4Config
	Curves []LearningCurve
}

// RunFigure4 reproduces Figure 4 and Table 3: the same stream of failures
// is healed by FixSym under each synopsis, measuring test-set accuracy
// after every successful fix and the cumulative synopsis compute time.
func RunFigure4(cfg Figure4Config) Figure4Result {
	test := BuildTestSet(cfg.Seed+500000, cfg.TestSize, LearningKinds())
	res := Figure4Result{Config: cfg}
	type entry struct {
		name string
		mk   func() synopsis.Synopsis
	}
	entries := []entry{
		{fmt.Sprintf("AdaBoost %d", cfg.AdaBoostT), func() synopsis.Synopsis { return synopsis.NewAdaBoost(cfg.AdaBoostT) }},
		{"Nearest neighbor", func() synopsis.Synopsis { return synopsis.NewNearestNeighbor() }},
		{"K-means", func() synopsis.Synopsis { return synopsis.NewKMeans() }},
	}
	for _, e := range entries {
		res.Curves = append(res.Curves, runLearning(cfg, e.name, e.mk(), test))
	}
	return res
}

// runLearning drives the FixSym loop (Figure 3) for one synopsis until
// TargetFixes correct fixes have been learned.
func runLearning(cfg Figure4Config, name string, syn synopsis.Synopsis, test []synopsis.Point) LearningCurve {
	ctx := context.Background()
	ts := &timed{inner: syn}
	approach := core.NewFixSym(ts)
	gen := faults.NewGenerator(cfg.Seed+999, LearningKinds()...)
	curve := LearningCurve{Synopsis: name}
	start := time.Now()

	for i := 0; ts.TrainingSize() < cfg.TargetFixes; i++ {
		if i > cfg.TargetFixes*6 {
			break // safety net against undetectable faults
		}
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(cfg.Seed+int64(i)*101), selfheal.WithApproachInstance(approach))
		before := ts.TrainingSize()
		sys.HealEpisode(ctx, gen.Next())
		after := ts.TrainingSize()
		if after == before {
			continue // undetected or unlabeled episode
		}
		// Accuracy probes run against the inner synopsis so that the
		// Table 3 clock only charges the healing loop's own learning and
		// suggestion work.
		acc := synopsis.Accuracy(ts.inner, test)
		curve.X = append(curve.X, after)
		curve.Y = append(curve.Y, acc)
		if before < cfg.ReportAt && after >= cfg.ReportAt {
			curve.TimeToReport = ts.elapsed
			curve.WallAtReport = time.Since(start)
			curve.AccAtReport = acc
		}
	}
	curve.WallTime = time.Since(start)
	if len(curve.Y) > 0 {
		curve.FinalAcc = curve.Y[len(curve.Y)-1]
	}
	if curve.TimeToReport == 0 {
		curve.TimeToReport = ts.elapsed
		curve.WallAtReport = curve.WallTime
		curve.AccAtReport = curve.FinalAcc
	}
	return curve
}

// Format renders the Figure 4 learning curves as an ASCII table of
// checkpoints plus the Table 3 rows.
func (r Figure4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — synopsis accuracy vs. correct fixes (test set: %d failure states)\n", r.Config.TestSize)
	checkpoints := []int{5, 10, 20, 30, 37, 50, 70, 85, 100}
	fmt.Fprintf(&b, "%-18s", "correct fixes:")
	for _, c := range checkpoints {
		if c <= r.Config.TargetFixes {
			fmt.Fprintf(&b, "%8d", c)
		}
	}
	b.WriteByte('\n')
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-18s", c.Synopsis)
		for _, cp := range checkpoints {
			if cp <= r.Config.TargetFixes {
				fmt.Fprintf(&b, "%7.1f%%", 100*c.AccuracyAt(cp))
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nTable 3 — synopsis comparison (running time at %d correct fixes)\n", r.Config.ReportAt)
	fmt.Fprintf(&b, "%-18s %18s %18s %14s\n", "Synopsis", "Learning time", "Loop wall time", "Accuracy")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-18s %18s %18s %13.1f%%\n",
			c.Synopsis, c.TimeToReport.Round(time.Microsecond),
			c.WallAtReport.Round(time.Millisecond), 100*c.AccAtReport)
	}
	return b.String()
}
