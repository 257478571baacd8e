package main

import (
	"fmt"
	"os"
	"sort"
)

// verdicts, from best to worst news.
const (
	vSame       = "same"
	vBetter     = "better"
	vWithin     = "within-bound"
	vUnresolved = "unresolved"
	vNoisy      = "too noisy to judge"
	vWorse      = "worse"
	vInfo       = ""
)

// spread is the distance between the quartiles as a share of the median;
// with fewer than four values, the whole range.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	d := (hi - lo) / med
	if d < 0 {
		d = -d
	}
	return d
}

// judge compares the runs of one metric on one workload. a is the base.
func judge(j metricDef, a, b []float64, noisy bool) string {
	ma, mb := median(a), median(b)
	if j.exact {
		switch {
		case ma == mb:
			return vSame
		case (mb > ma) == j.higher:
			return vBetter
		default:
			return vWorse
		}
	}
	if noisy {
		return vNoisy
	}
	// worse is how far b's median is on the wrong side of a's, as a share.
	worse := ratio(mb-ma, ma)
	if j.higher {
		worse = -worse
	}
	// Every run of one side beating every run of the other settles the
	// direction even when the spread is wide.
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sb[0] > sa[len(sa)-1]
	allWorse := sb[len(sb)-1] < sa[0]
	if !j.higher {
		allBetter, allWorse = allWorse, allBetter
	}
	wide := spread(a) > j.bound || spread(b) > j.bound
	switch {
	case wide && allBetter:
		return vBetter
	case wide && allWorse && worse > j.bound:
		return vWorse
	case wide:
		return vUnresolved
	case worse > j.bound:
		return vWorse
	case worse < -j.bound:
		return vBetter
	default:
		return vWithin
	}
}

// runKey identifies runs that may be compared: the same workload measured
// the same way on the same inputs for the same time.
type runKey struct {
	workload string
	trace    int
	seed     int64
	seconds  int
}

func (k runKey) String() string {
	return fmt.Sprintf("%s seed %d seconds %d trace %d", k.workload, k.seed, k.seconds, k.trace)
}

// group collects every run of one key: each metric's values, the digests,
// and whether any run was too noisy, fell short of the exact prefix, or
// failed its oracles.
type group struct {
	runs    int
	values  map[string][]float64
	units   map[string]string
	digests map[string][]string
	noisy   bool
	short   bool
	failed  int
}

func groupRecords(recs []record) map[runKey]*group {
	out := make(map[runKey]*group)
	for _, r := range recs {
		key := runKey{r.Workload, r.Trace, r.Seed, r.Seconds}
		g := out[key]
		if g == nil {
			g = &group{values: map[string][]float64{}, units: map[string]string{}, digests: map[string][]string{}}
			out[key] = g
		}
		g.runs++
		for _, set := range []map[string]metric{r.Metrics, r.Extra} {
			for name, m := range set {
				g.values[name] = append(g.values[name], m.Value)
				g.units[name] = m.Unit
			}
		}
		for _, name := range []string{"digest", "inputs"} {
			if d := r.Notes[name]; d != "" {
				g.digests[name] = append(g.digests[name], d)
			}
		}
		g.noisy = g.noisy || r.Notes["noise"] != ""
		g.short = g.short || r.Notes["prefix"] != ""
		if !r.Correct {
			g.failed++
		}
	}
	return out
}

// rule finds how a metric of a workload is judged: an end-to-end metric by
// its bound in BENCHMARK.json — exactly where it is simulated time — and a
// workload's own by its entry in ownMetrics. A run that fell short of the
// exact prefix has no exact numbers.
func rule(workloadName, name string, short bool) (metricDef, bool) {
	d, ok := find(bench.endToEnd, name)
	if ok {
		w := workloadByName(workloadName)
		d.exact = w != nil && w.simulated && simulatedMetrics[name]
	} else if d, ok = find(ownMetrics, name); !ok {
		return d, false
	}
	if short {
		d.exact = false
	}
	return d, d.exact || d.bound > 0
}

// compareFiles prints, for every set of comparable runs in two --out files,
// one row per metric — both medians, the bound and a verdict — and returns
// the exit status: 1 when anything got worse, a same-seed digest differs or
// a run failed its oracles, 2 when the files share nothing comparable.
func compareFiles(pathA, pathB string) int {
	recsA, err := readRecords(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	ga, gb := groupRecords(recsA), groupRecords(recsB)
	keys := make([]runKey, 0, len(ga)+len(gb))
	for k := range ga {
		keys = append(keys, k)
	}
	for k := range gb {
		if ga[k] == nil {
			keys = append(keys, k)
		}
	}
	// In the runner's workload order; an unknown workload sorts first.
	order := map[string]int{}
	for i, w := range workloads {
		order[w.name] = i + 1
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.workload != b.workload:
			return order[a.workload] < order[b.workload]
		case a.seed != b.seed:
			return a.seed < b.seed
		case a.seconds != b.seconds:
			return a.seconds < b.seconds
		}
		return a.trace < b.trace
	})

	// End-to-end metrics come first in each group, in their declared order.
	rank := map[string]int{}
	for i, d := range bench.endToEnd {
		rank[d.name] = i - len(bench.endToEnd)
	}
	status, compared := 0, 0
	counts := map[string]int{}
	for _, key := range keys {
		a, b := ga[key], gb[key]
		if a == nil || b == nil {
			// Runs of another seed, length or workload have other inputs:
			// setting them side by side would judge the inputs.
			only := pathA
			if a == nil {
				only = pathB
			}
			fmt.Printf("%s: only in %s, not compared\n\n", key, only)
			continue
		}
		compared++
		fmt.Printf("%s: %d runs in a, %d in b\n", key, a.runs, b.runs)
		if a.failed+b.failed > 0 {
			fmt.Printf("  ORACLE FAILURES: %d in a, %d in b\n", a.failed, b.failed)
			status = 1
		}
		fmt.Printf("  %-44s %14s %14s %-6s %8s %6s  %s\n", "metric", "a (median)", "b (median)", "unit", "change", "bound", "verdict")
		names := sortedKeys(a.values)
		sort.SliceStable(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
		for _, name := range names {
			vb, ok := b.values[name]
			if !ok {
				continue
			}
			va := a.values[name]
			verdict, bound := vInfo, ""
			if d, judged := rule(key.workload, name, a.short || b.short); judged {
				verdict = judge(d, va, vb, a.noisy || b.noisy)
				bound = fmt.Sprintf("%.0f%%", d.bound*100)
				if d.exact {
					bound = "exact"
				}
				counts[verdict]++
			}
			fmt.Printf("  %-44s %14.6g %14.6g %-6s %+7.1f%% %6s  %s\n",
				name, median(va), median(vb), a.units[name], 100*ratio(median(vb)-median(va), median(va)), bound, verdict)
		}
		for _, name := range []string{"digest", "inputs"} {
			da, db := a.digests[name], b.digests[name]
			if len(da) == 0 || len(db) == 0 {
				continue
			}
			// The inputs are the same, so every run on either side must
			// have produced the same digest.
			verdict := vSame
			switch {
			case a.short || b.short:
				verdict = "not comparable: a run fell short of the exact prefix"
			case !allEqual(append(append([]string(nil), da...), db...)):
				verdict = vWorse
				counts[vWorse]++
			default:
				counts[vSame]++
			}
			fmt.Printf("  %-44s %14s %14s %-6s %8s %6s  %s\n", name, digestCell(da), digestCell(db), "", "", "exact", verdict)
		}
		fmt.Println()
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no workload run with the same seed, seconds and trace mode")
		return 2
	}
	fmt.Printf("verdicts:")
	for _, v := range []string{vSame, vBetter, vWithin, vUnresolved, vNoisy, vWorse} {
		fmt.Printf(" %d %s;", counts[v], v)
	}
	fmt.Println()
	if counts[vWorse] > 0 {
		status = 1
	}
	if status != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: something got worse")
	}
	return status
}

// digestCell shows the digest every run of one side agrees on, or that they
// do not agree.
func digestCell(ds []string) string {
	if !allEqual(ds) {
		return "runs differ"
	}
	return ds[0][:8]
}

func allEqual(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
