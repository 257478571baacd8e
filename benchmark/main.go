// Command benchmark is the repository's one committed benchmark: four
// workloads over the healing loop, the knowledge base and the federated
// knowledge plane, each reporting the same end-to-end metrics with tracing
// off and, in a separate traced run, the per-layer metrics behind them.
// See README.md in this directory.
//
//	bash benchmark/run.sh --workload campaign-isolated --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1 --out a.json          # all four, end to end
//	bash benchmark/run.sh --seed 1 --trace 1             # all four, per layer
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract between the runner
// and whoever drives it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as kept in an --out file: the result plus what the
// driver's contract has no room for.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
	// Extra holds the workload's own metrics (ownMetrics): quantities this
	// workload alone has, so they cannot sit among the end-to-end metrics
	// every workload reports.
	Extra map[string]metric `json:"extra,omitempty"`
	// Notes holds digests and remarks ("too noisy to judge").
	Notes map[string]string `json:"notes,omitempty"`
	// Oracle lists every correctness check that failed.
	Oracle []string `json:"oracle_failures,omitempty"`
	// reported names the metrics the workload measured itself; the declared
	// ones it never enters are filled in as 0.
	reported []string
}

// env is what a workload is given: the seed its inputs derive from, how
// long to measure, and where the built daemon and scratch space are.
type env struct {
	seed    int64
	seconds time.Duration
	binDir  string
	workDir string
	procs   int
	// scale shrinks the fixed sizes (knowledge-base preload, oracle
	// replays, warm-up episodes, set-up repeats) for the smoke test; main
	// always runs at 1, the benchmark.
	scale float64
}

// scaled is n at the run's scale, never below min.
func (e env) scaled(n, min int) int {
	if v := int(float64(n) * e.scale); v > min {
		return v
	}
	return min
}

// report is what a workload hands back.
type report struct {
	attempted int
	failed    int
	oracle    []string
	metrics   map[string]float64
	extra     map[string]metric
	notes     map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, extra: map[string]metric{}, notes: map[string]string{}}
}

// endToEnd fills in the seven end-to-end metrics from what every workload
// measures: its median set-up time, how many operations the window
// completed, the window's wall and CPU time, the typical and tail latency in
// seconds, the share of operations that succeeded, and the resident set.
func (r *report) endToEnd(setupS, ops float64, wall, cpu time.Duration, latencyS, tailS, success, rssMB float64) {
	r.metrics["setup_s"] = setupS
	r.metrics["ops_per_s"] = ops / wall.Seconds()
	r.metrics["cpu_ms_per_op"] = ratio(float64(cpu.Microseconds())/1e3, ops)
	r.metrics["latency_ms"] = latencyS * 1e3
	r.metrics["latency_tail_ms"] = tailS * 1e3
	r.metrics["success_ratio"] = success
	r.metrics["peak_rss_mb"] = rssMB
}

// own reports one of the workload's own metrics, declared in ownMetrics.
func (r *report) own(name string, value float64) {
	d, ok := find(ownMetrics, name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in ownMetrics")
	}
	r.extra[name] = metric{value, d.unit}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.oracle = append(r.oracle, fmt.Sprintf(format, args...))
}

const (
	// setupRepeats and setupRepeatsMax bound how often a set-up is repeated;
	// see repeatSetup.
	setupRepeats    = 5
	setupRepeatsMax = 25
	// settleTicks is the healthy run between a replica's episodes, the
	// fleet's default.
	settleTicks = 120
	// replicaStride separates the seeds of Systems built side by side, as
	// the fleet separates its replicas'.
	replicaStride = 1_000_003
)

// repeatSetup sets up several times — at least setupRepeats, and (at full
// scale) until a second has gone into it or setupRepeatsMax is reached, so
// that a set-up of a few milliseconds is still timed steadily — and returns
// the last product with the median set-up time. The earlier products are
// handed to drop and collected, so one set-up's garbage is not timed or
// counted in the next.
func repeatSetup[T any](e env, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last, none T
	var times []float64
	begin := time.Now()
	atLeast := e.scaled(setupRepeats, 2)
	for i := 0; i < atLeast || (e.scale >= 1 && i < setupRepeatsMax && time.Since(begin) < time.Second); i++ {
		if i > 0 {
			drop(last)
			last = none
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// workload is one set of inputs: run measures it end to end with tracing
// off, trace measures its layers.
type workload struct {
	name  string
	run   func(ctx context.Context, e env) (*report, error)
	trace func(ctx context.Context, e env) (*report, error)
	// simulated says the workload's latency and success metrics
	// (simulatedMetrics) are simulated time: pure functions of the seed.
	simulated bool
	// issue says which of ISSUE 11's workload-specific names each
	// end-to-end metric carries here, for the reader who looks for one:
	// the run prints it beside the metric, README.md has the table.
	issue map[string]string
}

var workloads = []workload{
	{"campaign-isolated", runCampaign, traceCampaign, true, map[string]string{
		"ops_per_s":     "episodes_per_s",
		"cpu_ms_per_op": "cpu_s / episodes",
		"latency_ms":    "mean_ttr_ticks x 1000",
	}},
	{"scenario-library", runScenarios, traceScenarios, true, map[string]string{
		"ops_per_s":     "episodes_per_s",
		"cpu_ms_per_op": "cpu_s / episodes",
		"latency_ms":    "mean_ttr_ticks x 1000",
		"success_ratio": "recovered_ratio",
	}},
	{"kb-readwrite", runKB, traceKB, false, map[string]string{
		"ops_per_s":  "kb_reads_per_s",
		"latency_ms": "suggest_p50_us / 1000",
	}},
	{"federation-2node", runFederation, traceFederation, false, map[string]string{
		"ops_per_s":  "episodes_per_s",
		"latency_ms": "propagation_p50_ms",
	}},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// bench is BENCHMARK.json, read once at start-up.
var bench *manifest

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: all four, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 15, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "append this invocation's runs to a JSON file for --compare")
		runs    = flag.Int("runs", 1, "with no --workload: how many sets of the four workloads to run")
		compare = flag.Bool("compare", false, "compare two --out files given as arguments")
		binDir  = flag.String("bin", "", "directory holding the built selfheald (run.sh sets it)")
		workDir = flag.String("work", "", "scratch directory inside the checkout (run.sh sets it)")
	)
	flag.Parse()

	var err error
	// run.sh starts the runner in the repository root.
	if bench, err = loadManifest("BENCHMARK.json"); err != nil {
		fatalf("%v", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare takes two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *runs, *out, *binDir, *workDir))
	}
	w := workloadByName(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}

	// SIGINT/SIGTERM cancel the run; every workload releases what it
	// holds (daemons, temp directories) on its way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workDir == "" {
		*workDir = ".bench_build"
	}
	scratch := filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		binDir:  *binDir,
		workDir: scratch,
		procs:   runtime.GOMAXPROCS(0),
		scale:   1,
	}
	rec, err := measure(ctx, w, e, *trace)
	os.RemoveAll(scratch)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if *out != "" {
		if err := appendRecords(*out, []record{*rec}); err != nil {
			fatalf("%v", err)
		}
	}
	printRecord(rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// canaryTolerance is how far the spin loop may move across a run before
// the run's timings are marked too noisy to judge.
const canaryTolerance = 0.10

// measure runs one workload between two canary readings and assembles its
// record. A traced run reports every per-layer metric — zero for a layer
// the workload never enters — and an untraced run every end-to-end one.
func measure(ctx context.Context, w *workload, e env, trace int) (*record, error) {
	defs, fn := bench.endToEnd, w.run
	if trace != 0 {
		defs, fn = bench.perLayer, w.trace
	}
	spin := e.scaled(40_000_000, 1_000_000)
	before := canary(spin)
	rep, err := fn(ctx, e)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after := canary(spin)

	rec := &record{
		Workload: w.name, Seed: e.seed, Seconds: int(e.seconds / time.Second), Trace: trace,
		Extra: rep.extra, Notes: rep.notes, Oracle: rep.oracle,
	}
	canaryRatio := ratio(float64(after), float64(before))
	rep.own("noise.canary_ratio", canaryRatio)
	if canaryRatio > 1+canaryTolerance || canaryRatio < 1-canaryTolerance {
		rec.Notes["noise"] = "too noisy to judge"
	}
	rec.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && trace == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		rec.Metrics[d.name] = metric{v, d.unit}
	}
	for name := range rep.metrics {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
		rec.reported = append(rec.reported, name)
	}
	rec.Attempted, rec.Failed = rep.attempted, rep.failed
	rec.Correct = len(rep.oracle) == 0
	return rec, nil
}

// printRecord prints the run for a reader, then the result line the driver
// parses — which must stay the last line of standard output.
func printRecord(rec *record) {
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	defs := bench.endToEnd
	if rec.Trace != 0 {
		defs = bench.perLayer
	}
	var issue map[string]string
	if w := workloadByName(rec.Workload); w != nil && rec.Trace == 0 {
		issue = w.issue
	}
	for _, d := range defs {
		if v := rec.Metrics[d.name].Value; v != 0 || rec.Trace == 0 {
			line := fmt.Sprintf("  %-44s %16.6g %-6s %s", d.name, v, d.unit, d.arrow())
			if was := issue[d.name]; was != "" {
				line += " [ISSUE 11: " + was + "]"
			}
			fmt.Println(line)
		}
	}
	if rec.Trace != 0 {
		fmt.Println("  (layers this workload never enters read 0 and are not listed)")
	}
	for _, name := range sortedKeys(rec.Extra) {
		// Directions are for the metrics --compare judges; the rest
		// qualify them.
		arrow := ""
		if d, ok := find(ownMetrics, name); ok && (d.exact || d.bound > 0) {
			arrow = " " + d.arrow()
		}
		fmt.Printf("  %-44s %16.6g %-6s this workload only%s\n", name, rec.Extra[name].Value, rec.Extra[name].Unit, arrow)
	}
	for _, name := range sortedKeys(rec.Notes) {
		fmt.Printf("  note %s: %s\n", name, rec.Notes[name])
	}
	for _, f := range rec.Oracle {
		fmt.Printf("  ORACLE FAILED: %s\n", f)
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	line, _ := json.Marshal(rec.result)
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll runs every workload in a process of its own — a clean heap and a
// clean peak-RSS reading each — and gathers the records. It exits non-zero
// when any run fails an oracle.
func runAll(seed int64, seconds, trace, sets int, out, binDir, workDir string) int {
	tmp, err := os.CreateTemp(workDirOr(workDir), "records-*.json")
	if err != nil {
		fatalf("%v", err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	status := 0
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			cmd := exec.Command(os.Args[0],
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", tmp.Name(), "-bin", binDir, "-work", workDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				status = 1
			}
		}
	}
	recs, err := readRecords(tmp.Name())
	if err != nil {
		fatalf("%v", err)
	}
	if out != "" {
		if err := appendRecords(out, recs); err != nil {
			fatalf("%v", err)
		}
	}
	return status
}

func workDirOr(dir string) string {
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func appendRecords(path string, recs []record) error {
	have, err := readRecords(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(append(have, recs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
