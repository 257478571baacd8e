package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/diagnose"
	"selfheal/internal/faults"
	"selfheal/internal/sim"
)

// Profile models one of the three large multitier services of the paper's
// Figures 1–2 (after Oppenheimer et al. [18]) as a fault-kind mix. The
// mixes encode the study's observed service characters: Online and Content
// are operator-change-heavy; ReadMostly is network-exposed, front-end
// replicated infrastructure.
type Profile struct {
	Name    string
	Kinds   []catalog.FaultKind
	Weights []float64
}

// ServiceProfiles returns the three campaign profiles.
func ServiceProfiles() []Profile {
	kinds := []catalog.FaultKind{
		catalog.FaultOperatorConfig,
		catalog.FaultDeadlock,
		catalog.FaultException,
		catalog.FaultAging,
		catalog.FaultStaleStats,
		catalog.FaultBlockContention,
		catalog.FaultBufferContention,
		catalog.FaultCodeBug,
		catalog.FaultBottleneck,
		catalog.FaultHardware,
		catalog.FaultNetwork,
	}
	return []Profile{
		{
			Name:  "Online",
			Kinds: kinds,
			// Frequent operator configuration work on a live service.
			Weights: []float64{0.45, 0.04, 0.06, 0.04, 0.06, 0.04, 0.04, 0.05, 0.08, 0.06, 0.08},
		},
		{
			Name:  "Content",
			Kinds: kinds,
			// Constant content/config pushes plus software churn.
			Weights: []float64{0.40, 0.05, 0.08, 0.05, 0.06, 0.04, 0.04, 0.06, 0.08, 0.04, 0.10},
		},
		{
			Name:  "ReadMostly",
			Kinds: kinds,
			// Stable software, wide network exposure.
			Weights: []float64{0.20, 0.03, 0.05, 0.05, 0.05, 0.03, 0.04, 0.05, 0.10, 0.15, 0.25},
		},
	}
}

// Figure1Result is the cause-share distribution per service profile.
type Figure1Result struct {
	Profiles []string
	Causes   []catalog.Cause
	// Share[p][c] is the fraction of detected (user-visible) failures of
	// profile p attributed to cause c.
	Share  [][]float64
	Counts []int
}

// RunFigure1 regenerates Figure 1: inject the profile's fault mix and
// tally the causes of the failures that became user-visible.
func RunFigure1(seed int64, perProfile int) Figure1Result {
	ctx := context.Background()
	profiles := ServiceProfiles()
	causes := catalog.Causes()
	res := Figure1Result{Causes: causes}
	for pi, p := range profiles {
		gen := faults.NewGenerator(seed+int64(pi)*1009, p.Kinds...)
		gen.SetWeights(p.Weights)
		counts := make(map[catalog.Cause]int)
		detected := 0
		for i := 0; i < perProfile; i++ {
			f := gen.Next()
			sys := selfheal.MustNew(ctx, selfheal.WithSeed(seed+int64(pi)*100000+int64(i)*37))
			inject(sys, f)
			if sys.RunUntilFailing(ctx, 1800) {
				counts[f.Cause()]++
				detected++
			}
		}
		share := make([]float64, len(causes))
		if detected > 0 {
			for ci, c := range causes {
				share[ci] = float64(counts[c]) / float64(detected)
			}
		}
		res.Profiles = append(res.Profiles, p.Name)
		res.Share = append(res.Share, share)
		res.Counts = append(res.Counts, detected)
	}
	return res
}

// Format renders Figure 1 as a percentage table.
func (r Figure1Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 1 — causes of user-visible failures in three service profiles\n")
	fmt.Fprintf(&b, "%-12s", "cause")
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "%12s", p)
	}
	b.WriteByte('\n')
	for ci, c := range r.Causes {
		fmt.Fprintf(&b, "%-12s", c)
		for pi := range r.Profiles {
			fmt.Fprintf(&b, "%11.0f%%", 100*r.Share[pi][ci])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure2Result is mean time-to-recover by cause per profile, in simulated
// seconds (ticks).
type Figure2Result struct {
	Profiles []string
	Causes   []catalog.Cause
	// MeanTTR[p][c] in ticks; -1 when no failure of that cause recovered.
	MeanTTR [][]float64
}

// adminDelayFactor models the [18] observation that operator-caused
// failures take longest to recover: the human has to diagnose and undo a
// change of their own, while hardware swaps are routine.
func adminDelayFactor(c catalog.Cause) float64 {
	switch c {
	case catalog.CauseOperator:
		return 2.5
	case catalog.CauseHardware:
		return 0.6
	case catalog.CauseNetwork:
		return 0.8
	case catalog.CauseUnknown:
		return 1.6
	default:
		return 1
	}
}

// RunFigure2 regenerates Figure 2: the same campaign healed by the manual
// rule-based operations model of §3 (static rules plus human escalation),
// measuring time to recover per cause category.
func RunFigure2(seed int64, perProfile int) Figure2Result {
	ctx := context.Background()
	profiles := ServiceProfiles()
	causes := catalog.Causes()
	res := Figure2Result{Causes: causes}
	rng := sim.NewRNG(seed + 5)
	for pi, p := range profiles {
		gen := faults.NewGenerator(seed+int64(pi)*1009, p.Kinds...)
		gen.SetWeights(p.Weights)
		ttrSum := make([]float64, len(causes))
		ttrN := make([]int, len(causes))
		for i := 0; i < perProfile; i++ {
			f := gen.Next()
			// Human response time at the paper's minutes timescale with a
			// cause-dependent diagnosis cost and lognormal jitter.
			base := 600 * adminDelayFactor(f.Cause())
			sys := selfheal.MustNew(ctx,
				selfheal.WithSeed(seed+int64(pi)*100000+int64(i)*37),
				selfheal.WithApproachInstance(diagnose.NewManualRules()),
				selfheal.WithAdminDelayTicks(int(base*rng.LogNormal(0, 0.35))))
			ep := sys.HealEpisode(ctx, f)
			if !ep.Detected || !ep.Recovered {
				continue
			}
			for ci, c := range causes {
				if c == f.Cause() {
					ttrSum[ci] += float64(ep.TTR())
					ttrN[ci]++
				}
			}
		}
		mean := make([]float64, len(causes))
		for ci := range causes {
			if ttrN[ci] > 0 {
				mean[ci] = ttrSum[ci] / float64(ttrN[ci])
			} else {
				mean[ci] = -1
			}
		}
		res.Profiles = append(res.Profiles, p.Name)
		res.MeanTTR = append(res.MeanTTR, mean)
	}
	return res
}

// Format renders Figure 2 as a table of mean TTR (simulated minutes).
func (r Figure2Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 2 — mean time to recover by cause (simulated minutes, manual operations)\n")
	fmt.Fprintf(&b, "%-12s", "cause")
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "%12s", p)
	}
	b.WriteByte('\n')
	for ci, c := range r.Causes {
		fmt.Fprintf(&b, "%-12s", c)
		for pi := range r.Profiles {
			v := r.MeanTTR[pi][ci]
			if v < 0 {
				fmt.Fprintf(&b, "%12s", "—")
			} else {
				fmt.Fprintf(&b, "%11.1fm", v/60)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
