package targets

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
)

var updateShaping = flag.Bool("update", false, "rewrite testdata/shaping.golden from this run")

const (
	shapingTicks      = 2000
	shapingCheckpoint = 250
	shapingGolden     = "testdata/shaping.golden"
)

// shapingCases drive the WorkloadShaper knobs: each alone, then all four
// together with a bottleneck fault injected and cleared on top. A case's
// step runs before the tick it is given, so knobs also change mid-run.
var shapingCases = []struct {
	name string
	step func(tick int64, tg Target) error
}{
	{"scale", func(tick int64, tg Target) error {
		shapeScale(tick, tg.(WorkloadShaper))
		return nil
	}},
	{"diurnal", func(tick int64, tg Target) error {
		if tick == 0 {
			tg.(WorkloadShaper).EnableDiurnal()
		}
		return nil
	}},
	{"drift", func(tick int64, tg Target) error {
		shapeDrift(tick, tg.(WorkloadShaper))
		return nil
	}},
	{"surge", func(tick int64, tg Target) error {
		shapeSurges(tick, tg.(WorkloadShaper))
		return nil
	}},
	{"all", func(tick int64, tg Target) error {
		ws := tg.(WorkloadShaper)
		if tick == 0 {
			ws.EnableDiurnal()
		}
		shapeScale(tick, ws)
		shapeDrift(tick, ws)
		shapeSurges(tick, ws)
		return shapeFault(tick, tg)
	}},
}

func shapeScale(tick int64, ws WorkloadShaper) {
	switch tick {
	case 0:
		ws.SetLoadScale(1.35)
	case 1200:
		ws.SetLoadScale(0.6)
	}
}

func shapeDrift(tick int64, ws WorkloadShaper) {
	switch tick {
	case 0:
		ws.SetLoadDrift(2e-4)
	case 1000:
		ws.SetLoadDrift(-1e-4)
	}
}

// shapeSurges schedules overlapping surges ahead of their windows and one
// that starts as it is added and outlives the run.
func shapeSurges(tick int64, ws WorkloadShaper) {
	switch tick {
	case 0:
		ws.AddLoadSurge(300, 700, 1.8)
		ws.AddLoadSurge(500, 1500, 1.3)
	case 1800:
		ws.AddLoadSurge(1800, 1<<40, 0.7)
	}
}

// shapingFault is the bottleneck the "all" case injects at tick 900 and
// clears at tick 1300, one per target under test.
var shapingFault = map[string]Fault{}

func shapeFault(tick int64, tg Target) error {
	name := tg.Spec().Name
	switch tick {
	case 900:
		f, err := tg.(FaultMaker).MakeFault(catalog.FaultBottleneck, "", 0, 600)
		if err != nil {
			return err
		}
		shapingFault[name] = f
		return tg.Inject(f)
	case 1300:
		return tg.(FaultClearer).ClearFault(shapingFault[name])
	}
	return nil
}

// shapingDigests runs one case on a fresh target and returns the chained
// FNV-1a digest of every tick's expected rates, detect.Sample and metric
// rows, read at each checkpoint.
func shapingDigests(t *testing.T, target string, step func(int64, Target) error) []uint64 {
	t.Helper()
	var tg Target
	var err error
	if target == ReplicatedName {
		tg, err = NewReplicated(Config{Seed: 19})
	} else {
		tg, err = NewAuction(Config{Seed: 19})
	}
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	for _, src := range tg.Sources() {
		rows = append(rows, make([]float64, len(src.MetricNames())))
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range word {
			word[i] = byte(b >> (8 * i))
		}
		h.Write(word[:])
	}
	var out []uint64
	for tick := int64(0); tick < shapingTicks; tick++ {
		if err := step(tick, tg); err != nil {
			t.Fatalf("%s tick %d: %v", target, tick, err)
		}
		s := tg.Tick()
		put(s.Arrivals)
		put(s.Errors)
		put(s.AvgLatencyMS)
		put(s.SLOViolations)
		put(boolBit(s))
		for _, v := range shapedRates(tg) {
			put(v)
		}
		for i, src := range tg.Sources() {
			src.ReadMetrics(rows[i])
			for _, v := range rows[i] {
				put(v)
			}
		}
		if (tick+1)%shapingCheckpoint == 0 {
			out = append(out, h.Sum64())
		}
	}
	return out
}

// shapedRates returns the expected per-class rates the last tick drew its
// arrivals around. The draws round a rate that moved by an ulp to the same
// count almost always, so the rates are hashed themselves.
func shapedRates(tg Target) []float64 {
	switch tg := tg.(type) {
	case *Auction:
		return tg.gen.Rates(tg.Now() - 1)
	case *Replicated:
		return tg.ratesBuf
	}
	panic(fmt.Sprintf("no shaped rates for %T", tg))
}

func boolBit(s detect.Sample) float64 {
	if s.Down {
		return 1
	}
	return 0
}

// TestWorkloadShapingPinned pins both engines' shaped load bit for bit:
// every tick's expected rates, sample and metric rows, under each
// WorkloadShaper knob alone and all four together, must hash to the
// digests recorded in testdata/shaping.golden. No campaign digest covers this path (no library
// scenario on the replicated target scripts a workload directive), so a
// change in how either engine scales, modulates, drifts or surges its mix
// shows here first. Rerun with -update only when such a change is meant.
func TestWorkloadShapingPinned(t *testing.T) {
	var got strings.Builder
	for _, target := range []string{AuctionName, ReplicatedName} {
		for _, c := range shapingCases {
			for i, d := range shapingDigests(t, target, c.step) {
				fmt.Fprintf(&got, "%s %s %d %016x\n", target, c.name, (i+1)*shapingCheckpoint, d)
			}
		}
	}
	if *updateShaping {
		if err := os.WriteFile(shapingGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shapingGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := lines(string(want))
	for i, line := range lines(got.String()) {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("shaped run drifted at the first differing checkpoint:\n got %s\nwant %s", line, w)
		}
	}
	if n := len(lines(got.String())); n != len(wantLines) {
		t.Fatalf("%d checkpoints, golden holds %d", n, len(wantLines))
	}
}

func lines(s string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}
