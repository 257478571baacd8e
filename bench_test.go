package selfheal_test

// One benchmark per table and figure of the paper's evaluation, plus one
// per §5 research-agenda ablation. These drive the same harnesses as
// cmd/paper at reduced-but-meaningful sizes and report the headline
// numbers as custom benchmark metrics, so `go test -bench=. -benchmem`
// regenerates every artifact's shape in one run.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"selfheal"
	"selfheal/internal/experiments"
	"selfheal/internal/kbsync/meshtest"
	"selfheal/internal/service"
	"selfheal/internal/synopsis"
	"selfheal/internal/workload"
)

// BenchmarkTable1FaultFixMatrix regenerates Table 1: every fault kind
// against its candidate fixes plus a control.
func BenchmarkTable1FaultFixMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(71)
		candOK, candN, ctrlOK, ctrlN := 0, 0, 0, 0
		for _, row := range res.Rows {
			for _, o := range row.Outcomes {
				if o.Control {
					ctrlN++
					if o.Recovered {
						ctrlOK++
					}
				} else {
					candN++
					if o.Recovered {
						candOK++
					}
				}
			}
		}
		b.ReportMetric(100*float64(candOK)/float64(candN), "candidate-fix-%")
		b.ReportMetric(100*float64(ctrlOK)/float64(ctrlN), "control-fix-%")
	}
}

// BenchmarkFigure1FailureCauses regenerates Figure 1's cause distribution.
func BenchmarkFigure1FailureCauses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure1(18, 40)
		// Operator share of the Online profile is the paper's headline.
		b.ReportMetric(100*res.Share[0][0], "online-operator-%")
	}
}

// BenchmarkFigure2RecoveryTimes regenerates Figure 2's TTR-by-cause table.
func BenchmarkFigure2RecoveryTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure2(18, 30)
		// Operator vs. software recovery-time ratio (paper: operator slowest).
		op, sw := res.MeanTTR[0][0], res.MeanTTR[0][1]
		if sw > 0 {
			b.ReportMetric(op/sw, "operator/software-ttr")
		}
	}
}

// BenchmarkTable2ApproachComparison regenerates the Table 2 matrix.
func BenchmarkTable2ApproachComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickTable2Config()
		res := experiments.RunTable2(cfg)
		// FixSym's recurring-scenario first-try rate vs. manual rules'.
		b.ReportMetric(100*res.Cells[4][0].CorrectFirst, "fixsym-recurring-first-%")
		b.ReportMetric(100*res.Cells[0][0].CorrectFirst, "manual-recurring-first-%")
	}
}

// BenchmarkFigure4SynopsisAccuracy regenerates Figure 4's learning curves.
func BenchmarkFigure4SynopsisAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickFigure4Config()
		res := experiments.RunFigure4(cfg)
		b.ReportMetric(100*res.Curves[0].FinalAcc, "adaboost-%")
		b.ReportMetric(100*res.Curves[1].FinalAcc, "nn-%")
		b.ReportMetric(100*res.Curves[2].FinalAcc, "kmeans-%")
	}
}

// BenchmarkTable3SynopsisCost regenerates Table 3's learning-cost ratios.
func BenchmarkTable3SynopsisCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickFigure4Config()
		res := experiments.RunFigure4(cfg)
		ada, nn := res.Curves[0], res.Curves[1]
		if nn.TimeToReport > 0 {
			b.ReportMetric(float64(ada.TimeToReport)/float64(nn.TimeToReport), "adaboost/nn-time")
		}
	}
}

// BenchmarkAblationHybrid runs the §5.1 combination ablation.
func BenchmarkAblationHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunHybridAblation(71, 10)
		b.ReportMetric(100*res.Escalated[0], "fixsym-escalated-%")
		b.ReportMetric(100*res.Escalated[2], "hybrid-escalated-%")
	}
}

// BenchmarkAblationOnlineDrift runs the §5.2 online-learning ablation.
func BenchmarkAblationOnlineDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunOnlineDriftAblation(71, 18)
		b.ReportMetric(100*res.FrozenAccuracy, "frozen-%")
		b.ReportMetric(100*res.OnlineAccuracy, "online-%")
	}
}

// BenchmarkAblationConfidenceRanking runs the §5.2 ranking ablation.
func BenchmarkAblationConfidenceRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunConfidenceAblation(71, 8)
		b.ReportMetric(res.RankedMeanAttempts, "ranked-attempts")
		b.ReportMetric(res.UnrankedMeanAttempts, "antiranked-attempts")
	}
}

// BenchmarkAblationNegativeData runs the §5.2 negative-samples ablation.
func BenchmarkAblationNegativeData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunNegativeDataAblation(71, 10)
		b.ReportMetric(100*res.WithNegatives, "with-neg-first-%")
		b.ReportMetric(100*res.WithoutNegatives, "without-neg-first-%")
	}
}

// BenchmarkAblationProactive runs the §5.3 forecast-driven healing
// ablation.
func BenchmarkAblationProactive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunProactiveAblation(71, 1800)
		b.ReportMetric(float64(res.ReactiveBadTicks), "reactive-bad-ticks")
		b.ReportMetric(float64(res.ProactiveBadTicks), "proactive-bad-ticks")
	}
}

// BenchmarkAblationControl runs the §5.4 stability analysis.
func BenchmarkAblationControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunControlAblation(71)
		b.ReportMetric(float64(res.SettlingTime), "settling-ticks")
		b.ReportMetric(float64(res.Flapping.Worst), "flap-repeats")
	}
}

// BenchmarkServiceTick measures the simulator's per-tick cost — the unit
// everything above is built from.
func BenchmarkServiceTick(b *testing.B) {
	sys := selfheal.MustNew(context.Background(), selfheal.WithSeed(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkTickTerms measures one auction service tick at a fixed load
// in steady state, where the state-keyed tick terms are reused, and with
// a keyed field that changes every tick, so the terms are rebuilt on
// each. cmd/benchgate holds the steady row well below the changing one: a
// key that misses every tick (a NaN, or a field that drifts) fails CI
// instead of silently giving the reuse up.
func BenchmarkTickTerms(b *testing.B) {
	for _, bc := range []struct {
		name     string
		changing bool
	}{{"state=steady", false}, {"state=changing", true}} {
		b.Run(bc.name, func(b *testing.B) {
			svc := service.New(service.DefaultConfig())
			arrivals := slices.Clone(workload.BiddingMix().Rates)
			comments := svc.DB.Table("comments")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.changing {
					comments.Contention = float64(i & 1)
				}
				svc.Tick(arrivals)
			}
		})
	}
}

// BenchmarkArrivals measures one tick of steady-rate Poisson arrivals
// for the bidding mix: the sampler's share of an auction tick.
// cmd/benchgate holds it below a third of a steady TickTerms tick, so a
// sampler that goes back to scanning its CDF tables from the start fails
// CI.
func BenchmarkArrivals(b *testing.B) {
	b.Run("mix=bidding", func(b *testing.B) {
		gen := workload.NewGenerator(workload.BiddingMix(), 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.Arrivals(int64(i))
		}
	})
}

// BenchmarkHarnessStepAllocs pins the steady-state tick path's allocation
// behavior per target: the call-matrix ring is preallocated once at
// construction and refilled in place, so allocs/op stays flat no matter
// how long a campaign runs (it used to grow a fresh matrix copy — one
// slice header per caller row plus backing — every tick, forever).
func BenchmarkHarnessStepAllocs(b *testing.B) {
	for _, kind := range []selfheal.TargetKind{selfheal.TargetAuction, selfheal.TargetReplicated} {
		b.Run("target="+string(kind), func(b *testing.B) {
			sys := selfheal.MustNew(context.Background(), selfheal.WithSeed(3), selfheal.WithTargets(kind))
			// Run past the history-trim threshold so the measured window
			// is genuine steady state, not series warm-up growth.
			sys.StepN(5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Step()
			}
		})
	}
}

// BenchmarkHealEpisode measures one full detect→diagnose→fix→verify
// episode.
func BenchmarkHealEpisode(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		sys := selfheal.MustNew(ctx, selfheal.WithSeed(int64(i+1)), selfheal.WithApproach(selfheal.ApproachAnomaly))
		ep := sys.HealEpisode(ctx, selfheal.NewStaleStats("items", 8))
		if !ep.Recovered {
			b.Fatal("episode did not recover")
		}
	}
}

// auctionFaults is the default auction target's fault stream over every
// Table 1 kind at seed.
func auctionFaults(seed int64) selfheal.FaultGen {
	t, err := selfheal.NewTarget(selfheal.TargetAuction, selfheal.TargetConfig{})
	if err != nil {
		panic(err)
	}
	gen, err := t.NewFaults(seed)
	if err != nil {
		panic(err)
	}
	return gen
}

// seedKBPoints builds n synthetic labeled observations spread over the
// Table 1 candidate fixes, clustered per fix so nearest-neighbor lookups
// have structure. Deterministic in the seed.
func seedKBPoints(seed int64, n int) []selfheal.Point {
	gen := auctionFaults(seed)
	rng := rand.New(rand.NewSource(seed))
	pts := make([]selfheal.Point, 0, n)
	for len(pts) < n {
		f := gen.Next()
		fixes := selfheal.CandidateFixes(f.Kind())
		if len(fixes) == 0 {
			continue
		}
		fix := fixes[rng.Intn(len(fixes))]
		x := make([]float64, 24)
		for d := range x {
			x[d] = float64(fix)*3 + rng.NormFloat64()
		}
		pts = append(pts, selfheal.Point{
			X:       x,
			Action:  selfheal.Action{Fix: fix, Target: f.Target()},
			Success: true,
		})
	}
	return pts
}

// BenchmarkSharedSuggestParallel measures the fleet's healing hot path —
// Suggest against one shared knowledge base from every core at once:
// readers load an atomic snapshot and take no lock, so ns/op should stay
// flat as -cpu grows.
func BenchmarkSharedSuggestParallel(b *testing.B) {
	pts := seedKBPoints(99, 512)
	sh := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	sh.AddBatch(pts)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			sh.Suggest(pts[i%len(pts)].X, nil)
			i++
		}
	})
}

// BenchmarkScenarioCampaign drives each library scenario end to end on a
// fresh system with a nearest-neighbor learner: scripted injections and
// workload playback on the campaign clock, healing through the Figure 3
// loop. episodes/sec is healing throughput over the scripted horizon
// (construction and warmup included, as in BenchmarkFleetCampaign);
// recovered-% pins the adversarial outcome — the cascade row staying
// below 100 is the scenario engine doing its job.
func BenchmarkScenarioCampaign(b *testing.B) {
	ctx := context.Background()
	for _, name := range selfheal.ScenarioNames() {
		b.Run("scenario="+name, func(b *testing.B) {
			var recovered, sloTicks float64
			episodes := 0
			for i := 0; i < b.N; i++ {
				sc, err := selfheal.ScenarioByName(name)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := selfheal.New(ctx,
					selfheal.WithSeed(42),
					selfheal.WithApproach(selfheal.ApproachFixSymNN),
					selfheal.WithScenario(sc))
				if err != nil {
					b.Fatal(err)
				}
				st, err := sys.RunScenario(ctx, nil)
				if err != nil {
					b.Fatal(err)
				}
				episodes += st.Episodes
				recovered += st.RecoveredPct()
				sloTicks += float64(st.SLOViolationTicks)
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(episodes)/secs, "episodes/sec")
			}
			b.ReportMetric(recovered/float64(b.N), "recovered-%")
			b.ReportMetric(sloTicks/float64(b.N), "slo-violation-ticks")
		})
	}
}

// BenchmarkFleetCampaign is the campaign throughput grid: 1/4/16 replicas
// healing 4 random-fault episodes each, with the fleet learning into one
// shared snapshot knowledge base (kb=shared, episode-batched writes)
// versus fully isolated per-replica learners (kb=isolated). The
// targets=mixed row runs a heterogeneous fleet — auction and replicated
// targets alternating over one shared knowledge base — the fleet shape
// WithTargets adds. episodes/sec is the fleet's end-to-end healing
// throughput; construction (warming N simulators) is included
// deliberately — it is part of standing a fleet up.
func BenchmarkFleetCampaign(b *testing.B) {
	ctx := context.Background()
	grid := []struct {
		replicas int
		kb       string
		mixed    bool
	}{
		{1, "shared", false}, {1, "isolated", false},
		{4, "shared", false}, {4, "isolated", false},
		{16, "shared", false}, {16, "isolated", false},
		{4, "shared", true},
	}
	for _, g := range grid {
		name := fmt.Sprintf("replicas=%d/kb=%s", g.replicas, g.kb)
		if g.mixed {
			name += "/targets=mixed"
		}
		b.Run(name, func(b *testing.B) {
			episodes := 4 * g.replicas
			var recovered, ttr float64
			for i := 0; i < b.N; i++ {
				opts := []selfheal.Option{
					selfheal.WithSeed(int64(i + 1)),
					selfheal.WithLearnBatch(1),
				}
				if g.kb == "shared" {
					opts = append(opts,
						selfheal.WithSynopsis(selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())))
				} else {
					opts = append(opts, selfheal.WithApproach(selfheal.ApproachFixSymNN))
				}
				if g.mixed {
					opts = append(opts, selfheal.WithTargets(selfheal.TargetAuction, selfheal.TargetReplicated))
				}
				fleet, err := selfheal.NewFleet(ctx, g.replicas, opts...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: episodes})
				if err != nil {
					b.Fatal(err)
				}
				recovered += res.Stats.RecoveryRate()
				ttr += res.Stats.MeanTTR
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(episodes*b.N)/secs, "episodes/sec")
			}
			b.ReportMetric(100*recovered/float64(b.N), "recovered-%")
			b.ReportMetric(ttr/float64(b.N), "mean-ttr-ticks")
		})
	}
}

// kbScaleSizes are the knowledge-base sizes of the benchgate's scaling
// rows: 10³, 10⁵ and 10⁶ points. The gate (cmd/benchgate) asserts the
// 10⁶ row's Suggest p99 stays within 3× of the 10³ row — sublinear
// index search, not a linear scan that would be ~1000× slower.
var kbScaleSizes = []int{1_000, 100_000, 1_000_000}

// manifoldKBPoints builds n labeled observations shaped like mature-KB
// symptom vectors: z-scores concentrate on a handful of implicated
// metrics (the rest read zero, per the Point.X contract), and severity
// varies continuously — fault magnitudes are continuous knobs, so a
// long-lived KB covers its low-dimensional symptom manifold densely for
// every fix rather than collapsing into one point cluster per fix.
// Dense low-dimensional coverage is the KD index's favorable regime:
// the nearest exemplar of each fix is close, so the prune radius
// tightens as the KB grows (PERFORMANCE.md discusses the unfavorable
// regimes). Deterministic in the seed.
func manifoldKBPoints(seed int64, n int) []selfheal.Point {
	gen := auctionFaults(seed)
	rng := rand.New(rand.NewSource(seed))
	pts := make([]selfheal.Point, 0, n)
	for len(pts) < n {
		f := gen.Next()
		fixes := selfheal.CandidateFixes(f.Kind())
		if len(fixes) == 0 {
			continue
		}
		fix := fixes[rng.Intn(len(fixes))]
		// The universal saturation signature — latency and error rate —
		// at continuously varying severities; every fix has been tried
		// across the severity range, so each fix's exemplars cover the
		// same manifold. Vectors are stored in truncated sparse form
		// (trailing dimensions read zero, the same finite-support
		// convention portable KB snapshots use).
		x := []float64{1 + 7*rng.Float64(), 1 + 7*rng.Float64()}
		pts = append(pts, selfheal.Point{
			X:       x,
			Action:  selfheal.Action{Fix: fix, Target: f.Target()},
			Success: true,
		})
	}
	return pts
}

// scaleKBs memoizes the seeded scaling knowledge bases: building the
// 10⁶-point KB costs far more than querying it, and go test re-invokes
// a benchmark function with escalating b.N, so an unmemoized build
// would dominate every run that isn't -benchtime=1x.
var scaleKBs = map[int]*struct {
	kb      selfheal.Synopsis
	queries []selfheal.Point
}{}

func scaleKB(size int) (selfheal.Synopsis, []selfheal.Point) {
	if c, ok := scaleKBs[size]; ok {
		return c.kb, c.queries
	}
	nn := selfheal.NewNNSynopsis()
	nn.AddBatch(manifoldKBPoints(7, size))
	queries := manifoldKBPoints(8, 256)
	scaleKBs[size] = &struct {
		kb      selfheal.Synopsis
		queries []selfheal.Point
	}{nn, queries}
	return nn, queries
}

// timeQueries times fn once per held-out query, keeping each query's
// best of five sweeps (scheduler preemptions on a busy CI runner would
// otherwise fabricate tail latency), and returns the mean and p99 in
// nanoseconds.
func timeQueries(queries []selfheal.Point, fn func(x []float64)) (mean, p99 float64) {
	best := make([]float64, len(queries))
	for sweep := 0; sweep < 5; sweep++ {
		for i, q := range queries {
			start := time.Now()
			fn(q.X)
			d := float64(time.Since(start))
			if sweep == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	sort.Float64s(best)
	var sum float64
	for _, d := range best {
		sum += d
	}
	return sum / float64(len(best)), best[len(best)*99/100]
}

// measureQueries reports timeQueries' mean and p99; the benchgate's
// gates read both metrics.
func measureQueries(b *testing.B, queries []selfheal.Point, fn func(x []float64)) {
	mean, p99 := timeQueries(queries, fn)
	b.ReportMetric(mean, "mean-ns")
	b.ReportMetric(p99, "p99-ns")
}

// The scaling rows above are 2 coordinates wide, the KD nodes' favorable
// regime; no target produces such vectors. The rows below are the width
// the auction target's symptom space really has, where KD nodes prune
// nothing and the trees' projected heads do (internal/synopsis/head.go).
const (
	realWidth  = 104
	realKBSize = 20_000
)

// harvester is the learner a System teaches while realWidthKB harvests:
// a nearest-neighbor synopsis that also keeps every success it was shown.
type harvester struct {
	selfheal.Synopsis
	wins []selfheal.Point
}

func (h *harvester) Add(p selfheal.Point) {
	if p.Success {
		h.wins = append(h.wins, p)
	}
	h.Synopsis.Add(p)
}

// realWidthKB memoizes the real-width knowledge base: the successes one
// seeded System learns healing 300 random faults, each jittered (severity
// scale plus a little noise on every coordinate, so no two points
// coincide) into realKBSize stored points and 256 held-out queries.
var realWidthKB struct {
	kb      selfheal.Synopsis
	pts     []selfheal.Point
	queries []selfheal.Point
}

func realKB(b *testing.B) (selfheal.Synopsis, []selfheal.Point, []selfheal.Point) {
	if realWidthKB.kb != nil {
		return realWidthKB.kb, realWidthKB.pts, realWidthKB.queries
	}
	ctx := context.Background()
	h := &harvester{Synopsis: selfheal.NewNNSynopsis()}
	sys := selfheal.MustNew(ctx, selfheal.WithSynopsis(h), selfheal.WithLearnBatch(1), selfheal.WithSeed(7))
	defer sys.Close()
	gen, err := sys.NewFaults(106)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if ep := sys.HealEpisode(ctx, gen.Next()); ep.Err != nil {
			b.Fatal(ep.Err)
		}
		sys.StepN(120)
	}
	sys.FlushLearned()
	if len(h.wins) == 0 {
		b.Fatal("harvest: no successful fix")
	}
	rng := rand.New(rand.NewSource(7))
	jittered := func(n int) []selfheal.Point {
		out := make([]selfheal.Point, n)
		for i := range out {
			src := h.wins[rng.Intn(len(h.wins))]
			if len(src.X) != realWidth {
				b.Fatalf("harvested vector is %d wide, the rows are named width=%d", len(src.X), realWidth)
			}
			scale := 1 + 0.1*rng.NormFloat64()
			if scale < 0.1 {
				scale = 0.1
			}
			x := make([]float64, len(src.X))
			for d, v := range src.X {
				x[d] = v*scale + 0.05*rng.NormFloat64()
			}
			out[i] = selfheal.Point{X: x, Action: src.Action, Success: true}
		}
		return out
	}
	pts, queries := jittered(realKBSize), jittered(256)
	nn := selfheal.NewNNSynopsis()
	nn.AddBatch(pts)
	realWidthKB.kb, realWidthKB.pts, realWidthKB.queries = nn, pts, queries
	return nn, pts, queries
}

// benchRealWidth runs one real-width row: the indexed read's mean and p99
// and, from the same run on the same queries, the mean of the brute scan
// over the same points (the exported oracle index). The benchgate holds
// the indexed mean to 0.25× the brute mean — a ratio within one run, so
// machine speed cancels.
func benchRealWidth(b *testing.B, read func(kb selfheal.Synopsis, x []float64) selfheal.Action) {
	b.Run(fmt.Sprintf("width=%d/size=%d", realWidth, realKBSize), func(b *testing.B) {
		kb, pts, queries := realKB(b)
		brute := synopsis.NewBruteForceIndex(pts)
		for _, q := range queries[:16] {
			if got, want := read(kb, q.X), pts[brute.Nearest(q.X, 1)[0].Ord].Action; got != want {
				b.Fatalf("indexed read answers %v, the brute scan's nearest is %v", got, want)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			measureQueries(b, queries, func(x []float64) { read(kb, x) })
			bruteMean, _ := timeQueries(queries, func(x []float64) { brute.Nearest(x, 1) })
			b.ReportMetric(bruteMean, "brute-mean-ns")
		}
	})
}

// BenchmarkSynopsisSuggest pins the tentpole's read-path contract at
// scale: Suggest latency against knowledge bases of 10³, 10⁵ and 10⁶
// points. The nearest-neighbor learner scores every fix in one group
// traversal of its tagged KD forest, so latency must grow like the tree
// depth (logarithmic), not the KB size; the benchgate fails the run if
// the 10⁶ row's p99 or mean exceeds 3× the 10³ row's.
func BenchmarkSynopsisSuggest(b *testing.B) {
	for _, size := range kbScaleSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			kb, queries := scaleKB(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				measureQueries(b, queries, func(x []float64) { kb.Suggest(x, nil) })
			}
		})
	}
	benchRealWidth(b, func(kb selfheal.Synopsis, x []float64) selfheal.Action {
		s, _ := kb.Suggest(x, nil)
		return s.Action
	})
}

// BenchmarkSynopsisRankK is BenchmarkSynopsisSuggest for the ranked
// read path: RankK(x, 3) scores every fix but resolves targets only for
// the top three, so it must scale like Suggest — the gate holds it to
// the same 3× ceiling.
func BenchmarkSynopsisRankK(b *testing.B) {
	for _, size := range kbScaleSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			kb, queries := scaleKB(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				measureQueries(b, queries, func(x []float64) { kb.RankK(x, 3) })
			}
		})
	}
	benchRealWidth(b, func(kb selfheal.Synopsis, x []float64) selfheal.Action {
		return kb.RankK(x, 3)[0].Action
	})
}

// BenchmarkDeltaSince measures the federation increment: what one
// /kb/delta poll costs a serving daemon. The grid holds the increment
// fixed (new=64 points) while the knowledge base grows 16×; flat ns/op
// across kb sizes is the O(new points), never O(KB), contract — the
// property that keeps steady-state sync traffic independent of how much
// a fleet has learned.
func BenchmarkDeltaSince(b *testing.B) {
	mkPoint := func(rng *rand.Rand) selfheal.Point {
		x := make([]float64, 24)
		for d := range x {
			x[d] = rng.NormFloat64()
		}
		return selfheal.Point{
			X:       x,
			Action:  selfheal.Action{Fix: selfheal.CandidateFixes(selfheal.NewStaleStats("items", 6).Kind())[0], Target: "items"},
			Success: true,
		}
	}
	const newPts = 64
	for _, kbSize := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("kb=%d/new=%d", kbSize, newPts), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
			batch := make([]selfheal.Point, 0, 128)
			for i := 0; i < kbSize; i += 128 {
				batch = batch[:0]
				for j := 0; j < 128; j++ {
					batch = append(batch, mkPoint(rng))
				}
				kb.AddBatch(batch)
			}
			// The cursor a steady-state peer presents: current minus one
			// write of newPts points.
			tail := make([]selfheal.Point, newPts)
			for j := range tail {
				tail[j] = mkPoint(rng)
			}
			cursor := kb.Seq()
			kb.AddBatch(tail)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts, _ := kb.DeltaSince(cursor)
				if len(pts) != newPts {
					b.Fatalf("delta returned %d points, want %d", len(pts), newPts)
				}
			}
			b.ReportMetric(newPts, "points/delta")
		})
	}
}

// BenchmarkMeshPropagation measures the federation headline at fleet
// scale: the wall-clock latency from one node learning a fix to every
// node in a pull mesh being able to Suggest it. Reported as
// propagation_ms next to the usual ns/op (which also includes the
// convergence polling).
func BenchmarkMeshPropagation(b *testing.B) {
	for _, nodes := range []int{10, 50} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			m, err := meshtest.New(meshtest.Options{
				Nodes: nodes, Topology: meshtest.Random, Degree: 2, Seed: 63,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			m.Start()
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				m.Publish(i%nodes, meshBenchPoint(i, m))
				lat, err := m.AwaitConverged(i+1, 30*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				total += lat
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "propagation_ms")
		})
	}
}

// BenchmarkMeshCompactionMemory measures the bounded-memory guarantee
// under federation: 8 nodes pulling each other ingest a stream far
// beyond their cap; the row reports the largest arrival log any node
// ever held.
func BenchmarkMeshCompactionMemory(b *testing.B) {
	const maxPoints = 256
	m, err := meshtest.New(meshtest.Options{
		Nodes: 8, Topology: meshtest.Full,
		Compaction: &selfheal.Compaction{MaxPoints: maxPoints, MergeRadius: 0.5},
		Seed:       65,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	m.Start()
	peak := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			m.Publish(j%8, meshBenchPoint(i*1024+j, m))
			if got := m.MaxLogPoints(); got > peak {
				peak = got
			}
		}
	}
	b.StopTimer()
	if peak > maxPoints {
		b.Fatalf("arrival log peaked at %d points, cap is %d", peak, maxPoints)
	}
	b.ReportMetric(float64(peak), "peak_log_points")
	b.ReportMetric(maxPoints, "cap_points")
}

// meshBenchPoint derives the i-th well-separated mesh observation.
func meshBenchPoint(i int, m *meshtest.Mesh) selfheal.Point {
	x := make([]float64, len(m.Schema))
	for d := range x {
		x[d] = float64(i*5 + d*900)
	}
	return selfheal.Point{
		X:       x,
		Action:  selfheal.Action{Fix: selfheal.CandidateFixes(selfheal.NewStaleStats("items", 6).Kind())[0], Target: "items"},
		Success: true,
	}
}
