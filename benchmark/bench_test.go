package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestResolvablePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
	}{
		{300, 0.95, 0.95},         // 15 beyond p95
		{200, 0.95, 0.95},         // exactly 10 beyond
		{150, 0.95, 1 - 10.0/150}, // p95 would leave 7.5: falls back to p93.3
		{5000, 0.99, 0.99},        // 50 beyond p99
		{500, 0.99, 0.98},         // p99 would leave 5
		{15, 0.95, 0.5},           // never below the median
		{0, 0.95, 0.5},
	} {
		if got := resolvable(c.n, c.want); math.Abs(got-c.q) > 1e-12 {
			t.Errorf("resolvable(%d, %v) = %v, want %v", c.n, c.want, got, c.q)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, q := tail(xs, 0.95); q != 0.95 || math.Abs(v-949.05) > 1e-9 {
		t.Errorf("tail = %v at %v", v, q)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root, child, leaf := tr.layer("root"), tr.layer("child"), tr.layer("leaf")

	r := tr.begin(root, at(0))
	c1 := tr.begin(child, at(10))
	tr.end(c1, r, at(30), 1)
	c2 := tr.begin(child, at(40))
	l := tr.begin(leaf, at(45))
	tr.end(l, c2, at(55), 1)
	tr.end(c2, r, at(70), 1)
	tr.end(r, open{}, at(100), 1)

	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	if got := ms(root.self()); got != 50 { // 100 − (20 + 30)
		t.Errorf("root self = %d ms, want 50", got)
	}
	if got := ms(child.self()); got != 40 { // (20 + 30) − 10
		t.Errorf("child self = %d ms, want 40", got)
	}
	if got := ms(leaf.self()); got != 10 {
		t.Errorf("leaf self = %d ms, want 10", got)
	}
	if child.count != 2 || child.meanNs() != 25e6 {
		t.Errorf("child count %d mean %v", child.count, child.meanNs())
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	parents := map[int64]int64{}
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		parents[s.ID] = s.Parent
	}
	if len(parents) != 4 || parents[l.id] != c2.id || parents[c2.id] != r.id || parents[r.id] != 0 {
		t.Errorf("span file parents = %v", parents)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(50 * time.Millisecond)
	var dues []time.Time
	late := openLoop(context.Background(), start, end, 100, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 0 {
			time.Sleep(25 * time.Millisecond) // a stall: calls 1 and 2 start late
		}
	})
	if len(dues) != 5 || len(late) != 5 {
		t.Fatalf("%d calls, %d lateness readings, want 5", len(dues), len(late))
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("call %d due %v, want %v: the schedule must not drift with the stall", i, due.Sub(start), want.Sub(start))
		}
	}
	// Call 1 was due at 10 ms but could not start before the stall ended at
	// 25 ms; call 2, due at 20 ms, started right after it.
	if late[1] < 0.010 || late[2] < 0.003 {
		t.Errorf("lateness after the stall = %.4f s, %.4f s: the stall was hidden", late[1], late[2])
	}
	if late[4] > 0.008 {
		t.Errorf("call 4 still %.4f s late: the generator never caught up", late[4])
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	ctx := context.Background()
	gen := func(seed int64) string {
		in, err := generateKBInputs(ctx, seed, 8, 300, 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.exemplars) == 0 || len(in.preload) != 300 || len(in.writes) != 40 || len(in.queries) != kbQueries {
			t.Fatalf("inputs: %d exemplars, %d preload, %d writes, %d queries", len(in.exemplars), len(in.preload), len(in.writes), len(in.queries))
		}
		if w := len(in.preload[0].X); w < 50 {
			t.Fatalf("preload vectors are %d wide: not real-width symptom vectors", w)
		}
		return in.digest()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a != b {
		t.Errorf("seed 7 generated different inputs twice: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 generated the same inputs")
	}
	if string(probeBody(3)) != string(probeBody(3)) || string(probeBody(3)) == string(probeBody(4)) {
		t.Errorf("probe bodies must depend on the probe index alone")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{bound: 0.10}
	higher := metricDef{higher: true, bound: 0.10}
	for _, c := range []struct {
		name  string
		j     metricDef
		a, b  []float64
		noisy bool
		want  string
	}{
		{"lower within", lower, []float64{100, 101, 99, 100}, []float64{104, 105, 103, 104}, false, vWithin},
		{"lower worse", lower, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, false, vWorse},
		{"lower better", lower, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, vBetter},
		{"higher worse", higher, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, vWorse},
		{"wide overlap", lower, []float64{100, 140, 80, 120}, []float64{105, 150, 85, 125}, false, vUnresolved},
		{"wide but separated", lower, []float64{100, 140, 80, 120}, []float64{40, 60, 30, 50}, false, vBetter},
		{"noisy", lower, []float64{100}, []float64{150}, true, vNoisy},
		{"exact same", metricDef{exact: true}, []float64{81.27}, []float64{81.27}, true, vSame},
		{"exact worse", metricDef{exact: true, higher: true}, []float64{0.8127}, []float64{0.8126}, false, vWorse},
	} {
		if got := judge(c.j, c.a, c.b, c.noisy); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives --compare over written record files: only runs of
// the same workload, seed, length and trace mode are set side by side, a
// simulated metric is judged exactly where it is simulated, and a digest
// that differs for one seed — between the files or within one — fails.
func TestCompareFiles(t *testing.T) {
	run := func(workload string, seed int64, latency float64, digest string) record {
		return record{
			Workload: workload, Seed: seed, Seconds: 15,
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_ms": {latency, "ms"}}},
			Notes:  map[string]string{"digest": digest},
		}
	}
	write := func(recs ...record) string {
		path := filepath.Join(t.TempDir(), "runs.json")
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(run("campaign-isolated", 1, 100, "aaaaaaaaaaaaaaaa"), run("kb-readwrite", 1, 100, ""))
	for _, c := range []struct {
		name  string
		other string
		want  int
	}{
		{"identical", base, 0},
		{"host-timed latency within its bound", write(run("kb-readwrite", 1, 110, "")), 0},
		{"simulated latency is exact", write(run("campaign-isolated", 1, 100.5, "aaaaaaaaaaaaaaaa")), 1},
		{"digest differs between the files", write(run("campaign-isolated", 1, 100, "bbbbbbbbbbbbbbbb")), 1},
		{"digest differs within a file", write(run("campaign-isolated", 1, 100, "aaaaaaaaaaaaaaaa"), run("campaign-isolated", 1, 100, "bbbbbbbbbbbbbbbb")), 1},
		{"another seed is not comparable", write(run("campaign-isolated", 2, 500, "cccccccccccccccc")), 2},
	} {
		if got := compareFiles(base, c.other); got != c.want {
			t.Errorf("%s: exit status %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMain(m *testing.M) {
	var err error
	if bench, err = loadManifest(filepath.Join("..", "BENCHMARK.json")); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestManifest checks what the runner assumes of BENCHMARK.json: its
// workloads are the runner's, in order, and every end-to-end name the
// runner fills in or annotates is declared there.
func TestManifest(t *testing.T) {
	if len(bench.workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(bench.workloads), len(workloads))
	}
	rep := newReport()
	rep.endToEnd(1, 1, time.Second, time.Second, 1, 1, 1, 1)
	for i, w := range workloads {
		if bench.workloads[i] != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the runner", i, bench.workloads[i], w.name)
		}
		for name := range w.issue {
			if _, ok := rep.metrics[name]; !ok {
				t.Errorf("%s annotates %s, which is not an end-to-end metric", w.name, name)
			}
		}
	}
	for name := range simulatedMetrics {
		if _, ok := rep.metrics[name]; !ok {
			t.Errorf("simulated metric %s is not an end-to-end metric", name)
		}
	}
	if len(rep.metrics) != len(bench.endToEnd) {
		t.Errorf("the runner fills in %d end-to-end metrics, BENCHMARK.json declares %d", len(rep.metrics), len(bench.endToEnd))
	}
	for _, d := range bench.endToEnd {
		if _, ok := rep.metrics[d.name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which the runner does not fill in", d.name)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range ownMetrics {
		if _, clash := find(bench.endToEnd, d.name); clash {
			t.Errorf("own metric %s is also an end-to-end metric", d.name)
		}
	}
}

// smokeEnv builds selfheald once and hands out small, fast environments.
func smokeEnv(t *testing.T) env {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs exec real daemons")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "selfheald"), "./cmd/selfheald")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building selfheald: %v\n%s", err, out)
	}
	return env{seed: 3, seconds: 400 * time.Millisecond, binDir: bin, workDir: t.TempDir(), procs: 2, scale: 0.01}
}

// TestSmokeAllWorkloads runs every workload at a hundredth of its size,
// traced and untraced, the two-daemon exec included: every oracle must
// pass and every declared metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	e := smokeEnv(t)
	layers := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []int{0, 1} {
			t0 := time.Now()
			rec, err := measure(context.Background(), w, e, trace)
			t.Logf("%s trace %d: %v", w.name, trace, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !rec.Correct {
				t.Errorf("%s trace %d: oracle failures: %v", w.name, trace, rec.Oracle)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace %d: attempted %d failed %d", w.name, trace, rec.Attempted, rec.Failed)
			}
			if trace == 0 {
				for _, d := range bench.endToEnd {
					if v := rec.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, v)
					}
				}
			} else {
				for _, name := range rec.reported {
					layers[name] = true
				}
			}
		}
	}
	for _, d := range bench.perLayer {
		if !layers[d.name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, which no workload's traced run measures", d.name)
		}
	}
}
