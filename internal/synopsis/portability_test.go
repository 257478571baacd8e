package synopsis_test

// Portability acceptance tests for snapshot format v2: a knowledge base
// saved by a process that registered its target kinds in one order must
// rank fixes identically in a process that registered them in another —
// the ROADMAP's heterogeneous-fleet portability item. The "processes"
// are simulated with independent detect.SymptomSpace instances; the
// schemas are the real metric schemas of the shipped targets.

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/synopsis"
	"selfheal/internal/targets"
)

// schemaNames returns a target's metric names in schema order.
func schemaNames(t *testing.T, mk func(targets.Config) (targets.Target, error)) []string {
	t.Helper()
	tgt, err := mk(targets.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, src := range tgt.Sources() {
		names = append(names, src.MetricNames()...)
	}
	return names
}

// val derives a deterministic pseudo-z-score for (name, i): the same
// named coordinate gets the same value no matter which layout the vector
// is built in.
func val(name string, i int) float64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	x := h.Sum32() ^ uint32(i*2654435761)
	return float64(int32(x%1600))/200 - 4 // [-4, 4)
}

// scatter builds the Aligned-style vector of a failure on the schema
// `names`, laid out in space: every schema name gets its deterministic
// value at the dimension space assigns it.
func scatter(space *detect.SymptomSpace, names []string, i int) []float64 {
	idx := space.Indices(names)
	dim := 0
	for _, d := range idx {
		if d+1 > dim {
			dim = d + 1
		}
	}
	out := make([]float64, dim)
	for j, d := range idx {
		out[d] = val(names[j], i)
	}
	return out
}

// learners under test, fresh instances per call.
func freshLearners() map[string]func() synopsis.Synopsis {
	return map[string]func() synopsis.Synopsis{
		"nn": func() synopsis.Synopsis { return synopsis.NewNearestNeighbor() },
		"nn-negatives": func() synopsis.Synopsis {
			nn := synopsis.NewNearestNeighbor()
			nn.UseNegatives = true
			return nn
		},
		"kmeans":   func() synopsis.Synopsis { return synopsis.NewKMeans() },
		"adaboost": func() synopsis.Synopsis { return synopsis.NewAdaBoost(15) },
		"bayes":    func() synopsis.Synopsis { return synopsis.NewNaiveBayes() },
	}
}

// TestPermutedRegistrationRoundTrip is the headline acceptance test: a KB
// saved by a process registering (replicated, auction) and loaded by one
// registering (auction, replicated) produces identical RankK and Suggest
// output to a KB built natively in the reading process.
func TestPermutedRegistrationRoundTrip(t *testing.T) {
	auction := schemaNames(t, func(c targets.Config) (targets.Target, error) { return targets.NewAuction(c) })
	replicated := schemaNames(t, func(c targets.Config) (targets.Target, error) { return targets.NewReplicated(c) })

	// Writer process: replicated first, then auction.
	writerSpace := detect.NewSymptomSpace()
	writerSpace.Indices(replicated)
	writerSpace.Indices(auction)
	// Reader process: auction first, then replicated.
	readerSpace := detect.NewSymptomSpace()
	readerSpace.Indices(auction)
	readerSpace.Indices(replicated)

	actions := []synopsis.Action{
		{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"},
		{Fix: catalog.FixUpdateStats, Target: "items"},
		{Fix: catalog.FixRebootAppTier, Target: "app"},
		{Fix: catalog.FixFailoverNode, Target: "db"},
		{Fix: catalog.FixRepartitionTable, Target: "bids"},
	}
	schemaFor := func(i int) []string {
		if i%2 == 0 {
			return auction
		}
		return replicated
	}

	const n = 40
	for name, fresh := range freshLearners() {
		t.Run(name, func(t *testing.T) {
			writer, native := fresh(), fresh()
			for i := 0; i < n; i++ {
				p := synopsis.Point{
					Action:  actions[i%len(actions)],
					Success: i%7 != 3,
				}
				wp, np := p, p
				wp.X = scatter(writerSpace, schemaFor(i), i)
				np.X = scatter(readerSpace, schemaFor(i), i)
				writer.Add(wp)
				native.Add(np)
			}

			loaded := fresh()
			roundTrip(t, writer, loaded, writerSpace, readerSpace)
			if loaded.TrainingSize() != native.TrainingSize() {
				t.Fatalf("loaded TrainingSize %d, native %d", loaded.TrainingSize(), native.TrainingSize())
			}

			for i := 0; i < 20; i++ {
				q := scatter(readerSpace, schemaFor(i), 1000+i)
				gotRank, wantRank := loaded.RankK(q, -1), native.RankK(q, -1)
				if !reflect.DeepEqual(gotRank, wantRank) {
					t.Fatalf("query %d: RankK diverges\nloaded: %v\nnative: %v", i, gotRank, wantRank)
				}
				gotSug, gotOK := loaded.Suggest(q, nil)
				wantSug, wantOK := native.Suggest(q, nil)
				if gotOK != wantOK || gotSug != wantSug {
					t.Fatalf("query %d: Suggest diverges: %v/%v vs %v/%v", i, gotSug, gotOK, wantSug, wantOK)
				}
			}
		})
	}
}

// TestPermutedRegistrationProperty fuzzes the same invariant over random
// synthetic schemas and random registration orders: save→load under any
// permuted registration order is identical to a native build.
func TestPermutedRegistrationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	schemas := [][]string{
		{"svc.lat", "svc.err", "a.one", "a.two", "a.three"},
		{"svc.lat", "svc.err", "b.one", "b.two"},
		{"svc.lat", "c.one", "c.two", "c.three", "c.four"},
	}
	actions := []synopsis.Action{
		{Fix: catalog.FixUpdateStats, Target: "t1"},
		{Fix: catalog.FixRepartitionMemory, Target: "t2"},
		{Fix: catalog.FixFullRestart},
	}
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(len(schemas))
		writerSpace := detect.NewSymptomSpace()
		for _, s := range order {
			writerSpace.Indices(schemas[s])
		}
		readerSpace := detect.NewSymptomSpace()
		for s := range schemas {
			readerSpace.Indices(schemas[s])
		}

		writer, native, loaded := synopsis.NewNearestNeighbor(), synopsis.NewNearestNeighbor(), synopsis.NewNearestNeighbor()
		for i := 0; i < 30; i++ {
			sc := schemas[i%len(schemas)]
			p := synopsis.Point{Action: actions[i%len(actions)], Success: true}
			wp, np := p, p
			wp.X = scatter(writerSpace, sc, trial*1000+i)
			np.X = scatter(readerSpace, sc, trial*1000+i)
			writer.Add(wp)
			native.Add(np)
		}
		roundTrip(t, writer, loaded, writerSpace, readerSpace)
		for i := 0; i < 12; i++ {
			q := scatter(readerSpace, schemas[i%len(schemas)], 5000+trial*100+i)
			if !reflect.DeepEqual(loaded.RankK(q, -1), native.RankK(q, -1)) {
				t.Fatalf("trial %d (order %v), query %d: RankK diverges", trial, order, i)
			}
		}
	}
}

// roundTrip carries writer's history through the wire format into loaded:
// Capture and Encode in writerSpace, then Decode and Replay into
// readerSpace.
func roundTrip(t *testing.T, writer, loaded synopsis.Synopsis, writerSpace, readerSpace *detect.SymptomSpace) {
	t.Helper()
	snap, err := synopsis.Capture(writer, synopsis.SaveOptions{Space: writerSpace})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := synopsis.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Replay(loaded, readerSpace); err != nil {
		t.Fatal(err)
	}
}
