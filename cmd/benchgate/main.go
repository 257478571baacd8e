// Command benchgate gates CI on the ratios `go test -bench` output must
// keep inside one run, where machine speed cancels:
//
//	go test -run='^$' -bench='SynopsisSuggest|SynopsisRankK' -benchtime=1x . > bench.txt
//	benchgate -in bench.txt
//
// Two kinds of ratio are pinned:
//
//   - scaling: the KB-size-scaling rows (SynopsisSuggest/SynopsisRankK at
//     size=1000 vs size=1000000) must keep the big row's query latency
//     within a fixed factor of the small row's, which pins the index's
//     sublinear behavior — a linear scan would be ~1000× at the big size,
//     so any return to linear scaling fails immediately. Those rows are
//     2 coordinates wide;
//   - real width: the width=104/size=20000 rows must keep the indexed
//     read's mean within 0.25× the brute scan's mean measured in the same
//     row, which pins the trees' projected heads and the boxes over them —
//     KD nodes split on raw coordinates prune nothing at that width, and
//     row heads alone read 0.32–0.45.
//
// Absolute throughput is not gated here: a number from one run of one
// machine says little about another. The committed benchmark's paired
// parent/change comparison (benchmark/run.sh --compare) does that job.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// ratioGate pins a ratio inside one run: heldMetric of the held row must
// stay within factor× refMetric of the ref row. Sublinear index scaling
// holds a big row against a small one; the real-width gate holds one
// metric of a row against another of the same row. Both rows absent skips
// the gate (a bench sweep that never ran them); exactly one absent fails
// it.
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
// 20,000-point KB of real-width vectors within 0.25× the brute scan
// (three local runs read 0.16–0.19; a third of margin on top).
var ratioGates = []ratioGate{
	{"SynopsisSuggest/size=1000000", "p99_ns", "SynopsisSuggest/size=1000", "p99_ns", 3, towardLinear},
	{"SynopsisSuggest/size=1000000", "mean_ns", "SynopsisSuggest/size=1000", "mean_ns", 3, towardLinear},
	{"SynopsisRankK/size=1000000", "p99_ns", "SynopsisRankK/size=1000", "p99_ns", 3, towardLinear},
	{"SynopsisRankK/size=1000000", "mean_ns", "SynopsisRankK/size=1000", "mean_ns", 3, towardLinear},
	{"SynopsisSuggest/width=104/size=20000", "mean_ns", "SynopsisSuggest/width=104/size=20000", "brute_mean_ns", 0.25, headGone},
	{"SynopsisRankK/width=104/size=20000", "mean_ns", "SynopsisRankK/width=104/size=20000", "brute_mean_ns", 0.25, headGone},
}

// gomaxprocsSuffix strips the trailing -N a parallel benchmark name
// carries when GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// metricKey normalizes a benchmark unit into an identifier-like key:
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

func main() {
	in := flag.String("in", "", "benchmark output file (default: stdin)")
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
	fmt.Println("benchgate: every index ratio inside its pinned factor")
}
