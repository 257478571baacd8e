// Command benchgate turns `go test -bench` output into a benchmark
// baseline file and gates CI on throughput regressions against the
// committed baseline.
//
//	go test -run='^$' -bench='FleetCampaign|Synopsis' -benchtime=1x . | tee bench.txt
//	benchgate -in bench.txt -baseline BENCH_PR7.json -out BENCH_PR7.json
//
// The baseline records every custom metric each benchmark reports
// (episodes/sec, recovered-%, mean-ttr-ticks, p99-ns, ...) plus ns/op.
// Two gates run against it:
//
//   - regression: episodes/sec — the fleet's headline throughput — must
//     not drop more than -max-regress (default 15%) on any benchmark
//     present in both files;
//   - scaling: the KB-size-scaling rows (SynopsisSuggest/SynopsisRankK at
//     size=1000 vs size=1000000) must keep the big row's query latency
//     within a fixed factor of the small row's, which pins the index's
//     sublinear behavior — a linear scan would be ~1000× at the big size,
//     so any return to linear scaling fails immediately. Those rows are
//     2 coordinates wide; the real-width rows (width=104/size=20000) must
//     keep the indexed read's mean within 0.6× the brute scan's mean
//     measured in the same row, which pins the trees' projected heads —
//     KD nodes alone prune nothing at that width.
//
// A missing baseline file records instead of gates, so the first run on a
// fresh branch bootstraps itself. The ratio gates need no baseline —
// they compare numbers within the fresh run, so machine speed cancels.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// throughputKey is the metric the regression gate compares.
const throughputKey = "episodes_per_sec"

// ratioGate pins a ratio inside one run: heldMetric of the held row must
// stay within factor× refMetric of the ref row. Sublinear index scaling
// holds a big row against a small one; the real-width gate holds one
// metric of a row against another of the same row. Both rows absent skips
// the gate (a bench sweep that never ran them); exactly one absent fails
// via the missing-benchmark check against the baseline.
type ratioGate struct {
	held, heldMetric string
	ref, refMetric   string
	factor           float64
	broken           string // what a failure means
}

const (
	towardLinear = "index scaling regressed toward linear"
	headGone     = "the index no longer prunes at real width"
)

// ratioGates lists the pinned ratios: a million-point KB must answer
// Suggest/RankK within 3× the thousand-point latency (p99 and mean both,
// so neither the tail nor the bulk drifts back toward linear), and a
// 20,000-point KB of real-width vectors within 0.6× the brute scan.
var ratioGates = []ratioGate{
	{"SynopsisSuggest/size=1000000", "p99_ns", "SynopsisSuggest/size=1000", "p99_ns", 3, towardLinear},
	{"SynopsisSuggest/size=1000000", "mean_ns", "SynopsisSuggest/size=1000", "mean_ns", 3, towardLinear},
	{"SynopsisRankK/size=1000000", "p99_ns", "SynopsisRankK/size=1000", "p99_ns", 3, towardLinear},
	{"SynopsisRankK/size=1000000", "mean_ns", "SynopsisRankK/size=1000", "mean_ns", 3, towardLinear},
	{"SynopsisSuggest/width=104/size=20000", "mean_ns", "SynopsisSuggest/width=104/size=20000", "brute_mean_ns", 0.6, headGone},
	{"SynopsisRankK/width=104/size=20000", "mean_ns", "SynopsisRankK/width=104/size=20000", "brute_mean_ns", 0.6, headGone},
}

// baselineFile is the on-disk format: one record of metric->value per
// benchmark, keyed by the benchmark's name without the Benchmark prefix
// or the -GOMAXPROCS suffix (which would churn across CI runners).
type baselineFile struct {
	Version    int                           `json:"version"`
	Bench      string                        `json:"bench"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// gomaxprocsSuffix strips the trailing -N a parallel benchmark name
// carries when GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// metricKey normalizes a benchmark unit into a JSON-friendly key:
// "episodes/sec" -> "episodes_per_sec", "recovered-%" -> "recovered_pct",
// "ns/op" -> "ns_per_op".
func metricKey(unit string) string {
	u := strings.ReplaceAll(unit, "/", "_per_")
	u = strings.ReplaceAll(u, "-%", "_pct")
	u = strings.ReplaceAll(u, "-", "_")
	return u
}

// parseBench reads `go test -bench` output: lines of the form
//
//	BenchmarkName/sub=x-8  1  26118192 ns/op  153.2 episodes/sec  ...
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(gomaxprocsSuffix.ReplaceAllString(fields[0], ""), "Benchmark")
		rec := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			rec[metricKey(fields[i+1])] = v
		}
		if len(rec) > 0 {
			out[name] = rec
		}
	}
	return out, sc.Err()
}

func readBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &bf, nil
}

func main() {
	var (
		in         = flag.String("in", "", "benchmark output file (default: stdin)")
		baseline   = flag.String("baseline", "BENCH_PR7.json", "committed baseline to gate against (missing file: no gate)")
		out        = flag.String("out", "", "write the freshly measured baseline JSON here (empty: don't)")
		maxRegress = flag.Float64("max-regress", 0.15, "max tolerated fractional episodes/sec regression")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		defer f.Close()
		src = f
	}
	fresh, err := parseBench(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines in input")
		os.Exit(2)
	}

	// Read the baseline before any -out write: -baseline and -out may
	// name the same file (measure, gate, leave the refreshed baseline
	// ready to commit).
	old, baseErr := readBaseline(*baseline)
	if baseErr != nil && !os.IsNotExist(baseErr) {
		fmt.Fprintln(os.Stderr, "benchgate:", baseErr)
		os.Exit(2)
	}

	if *out != "" {
		bf := baselineFile{Version: 1, Bench: "go test -bench -benchtime=1x", Benchmarks: fresh}
		data, err := json.MarshalIndent(bf, "", " ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmark records to %s\n", len(fresh), *out)
	}

	// The ratio gates compare numbers of the fresh run against each other,
	// so they run even when there is no baseline yet.
	var scalefails []string
	for _, g := range ratioGates {
		ref, okR := fresh[g.ref]
		held, okH := fresh[g.held]
		if !okR && !okH {
			continue // these rows are not part of this sweep
		}
		rv, hv := ref[g.refMetric], held[g.heldMetric]
		if rv <= 0 || hv <= 0 {
			scalefails = append(scalefails,
				fmt.Sprintf("%s %s vs %s %s: missing or zero (have %.1f / %.1f)", g.held, g.heldMetric, g.ref, g.refMetric, hv, rv))
			continue
		}
		ratio := hv / rv
		fmt.Printf("  scale %.2fx <= %gx  %s %s %.0f vs %s %s %.0f\n",
			ratio, g.factor, g.held, g.heldMetric, hv, g.ref, g.refMetric, rv)
		if ratio > g.factor {
			scalefails = append(scalefails,
				fmt.Sprintf("%s: %s %.0f is %.2fx %s %s %.0f (limit %gx) — %s",
					g.held, g.heldMetric, hv, ratio, g.ref, g.refMetric, rv, g.factor, g.broken))
		}
	}
	if len(scalefails) > 0 {
		fmt.Fprintln(os.Stderr, "benchgate: index ratios past their pinned factor:")
		for _, s := range scalefails {
			fmt.Fprintln(os.Stderr, "  "+s)
		}
		os.Exit(1)
	}

	if os.IsNotExist(baseErr) {
		fmt.Printf("benchgate: no baseline at %s; recorded only, nothing to gate\n", *baseline)
		return
	}

	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		rec := fresh[name]
		was, ok := old.Benchmarks[name]
		if !ok {
			fmt.Printf("  new   %-48s %10.1f eps\n", name, rec[throughputKey])
			continue
		}
		now, prev := rec[throughputKey], was[throughputKey]
		if prev <= 0 {
			// The baseline never recorded throughput for this benchmark;
			// there is nothing to gate against.
			continue
		}
		if now <= 0 {
			// A gated benchmark that stops reporting episodes/sec (metric
			// renamed, throughput collapsed to zero) must fail loudly, not
			// slip through ungated.
			regressions = append(regressions,
				fmt.Sprintf("%s: episodes/sec missing or zero this run (baseline %.1f)", name, prev))
			continue
		}
		delta := now/prev - 1
		fmt.Printf("  %+5.1f%% %-48s %10.1f -> %7.1f eps\n", 100*delta, name, prev, now)
		if now < prev*(1-*maxRegress) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f -> %.1f episodes/sec (%.1f%% < -%.0f%% floor)",
					name, prev, now, 100*delta, 100**maxRegress))
		}
	}
	// A benchmark in the baseline but absent from this run means the gate
	// silently stopped protecting it (renamed, filtered, or crashed out).
	// Fail loudly; an intentional rename updates the committed baseline.
	var missing []string
	for name := range old.Benchmarks {
		if _, ok := fresh[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)

	if len(regressions) > 0 || len(missing) > 0 {
		if len(regressions) > 0 {
			fmt.Fprintln(os.Stderr, "benchgate: throughput regressions past the floor:")
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
		}
		if len(missing) > 0 {
			fmt.Fprintln(os.Stderr, "benchgate: baseline benchmarks missing from this run (rename? crash? refresh the baseline):")
			for _, m := range missing {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: no episodes/sec regression past the floor")
}
