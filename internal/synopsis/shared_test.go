package synopsis

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"selfheal/internal/catalog"
)

// TestSharedConcurrentAddSuggest hammers one Shared synopsis from 8
// goroutines mixing Add, Suggest, RankK and TrainingSize. It is primarily a
// -race exercise; afterwards every observation must be present.
func TestSharedConcurrentAddSuggest(t *testing.T) {
	sh := NewShared(NewNearestNeighbor())
	const workers = 8
	const perWorker = 200

	fixesPool := []catalog.FixID{
		catalog.FixUpdateStats, catalog.FixMicrorebootEJB, catalog.FixRebootAppTier,
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := []float64{float64(w), float64(i), float64(w * i)}
				sh.Add(Point{
					X:       x,
					Action:  Action{Fix: fixesPool[(w+i)%len(fixesPool)], Target: "t"},
					Success: true,
				})
				if sug, ok := sh.Suggest(x, nil); ok && sug.Action.Fix == catalog.FixNone {
					t.Errorf("worker %d: suggestion with no fix", w)
				}
				sh.RankK(x, -1)
				sh.TrainingSize()
			}
		}(w)
	}
	wg.Wait()

	if got, want := sh.TrainingSize(), workers*perWorker; got != want {
		t.Errorf("TrainingSize = %d, want %d", got, want)
	}
	if pts, err := sh.Export(); err != nil || len(pts) != workers*perWorker {
		t.Errorf("Export returned %d points (err %v), want %d", len(pts), err, workers*perWorker)
	}
}

// TestSharedReadersDuringBatchedWrites hammers Suggest from 32 goroutines
// while one writer streams AddBatch flushes — the fleet's steady state:
// many lock-free snapshot readers, one episode-batched writer at a time.
// Primarily a -race exercise over the snapshot republish; it also checks
// readers only ever see consistent models (every suggestion names a real
// fix) and that no batch is lost.
func TestSharedReadersDuringBatchedWrites(t *testing.T) {
	sh := NewShared(NewNearestNeighbor())
	fixesPool := []catalog.FixID{
		catalog.FixUpdateStats, catalog.FixMicrorebootEJB, catalog.FixRebootAppTier,
	}
	// Seed one point so readers have suggestions from the start.
	sh.Add(Point{X: []float64{0, 0, 0}, Action: Action{Fix: fixesPool[0], Target: "t"}, Success: true})

	const readers = 32
	const batches = 60
	const batchSize = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := []float64{float64(r), 1, 2}
			for {
				select {
				case <-done:
					return
				default:
				}
				sug, ok := sh.Suggest(x, nil)
				if !ok {
					t.Errorf("reader %d: seeded knowledge base had no suggestion", r)
					return
				}
				if sug.Action.Fix == catalog.FixNone {
					t.Errorf("reader %d: suggestion with no fix", r)
					return
				}
				sh.RankK(x, -1)
				sh.TrainingSize()
			}
		}(r)
	}
	for b := 0; b < batches; b++ {
		batch := make([]Point, batchSize)
		for i := range batch {
			batch[i] = Point{
				X:       []float64{float64(b), float64(i), float64(b * i)},
				Action:  Action{Fix: fixesPool[(b+i)%len(fixesPool)], Target: "t"},
				Success: true,
			}
		}
		sh.AddBatch(batch)
	}
	close(done)
	wg.Wait()

	if got, want := sh.TrainingSize(), 1+batches*batchSize; got != want {
		t.Errorf("TrainingSize = %d, want %d", got, want)
	}
}

// TestSharedIsTransparent verifies the wrapper changes nothing but the
// name: a Shared NN and a bare NN fed the same points agree on every
// suggestion.
func TestSharedIsTransparent(t *testing.T) {
	bare := NewNearestNeighbor()
	sh := NewShared(NewNearestNeighbor())
	pts := []Point{
		{X: []float64{1, 0, 0}, Action: Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true},
		{X: []float64{0, 1, 0}, Action: Action{Fix: catalog.FixMicrorebootEJB, Target: "ItemBean"}, Success: true},
		{X: []float64{0, 0, 1}, Action: Action{Fix: catalog.FixRebootAppTier, Target: "app"}, Success: true},
	}
	for _, p := range pts {
		bare.Add(p)
		sh.Add(p)
	}
	for _, p := range pts {
		a, aok := bare.Suggest(p.X, nil)
		b, bok := sh.Suggest(p.X, nil)
		if aok != bok || a != b {
			t.Errorf("Suggest(%v): bare=(%v,%v) shared=(%v,%v)", p.X, a, aok, b, bok)
		}
	}
	if sh.Name() != "shared-"+bare.Name() {
		t.Errorf("Name = %q", sh.Name())
	}
}

// TestVersionGuardsTheReadPath pins the contract Shared skips its snapshot
// clone on: a write that leaves a learner's Version unchanged leaves every
// read unchanged too, through Add and through AddBatch alike, and Reset
// always moves Version.
func TestVersionGuardsTheReadPath(t *testing.T) {
	probes := streamPoints(12, 10)
	for name, fresh := range learnersUnderTest() {
		t.Run(name, func(t *testing.T) {
			s := fresh()
			ranks := func() [][]Suggestion {
				out := make([][]Suggestion, len(probes))
				for i, pr := range probes {
					out[i] = s.RankK(pr.X, -1)
				}
				return out
			}
			kept := 0
			write := func(what string, w func()) {
				v, before := s.Version(), ranks()
				w()
				if s.Version() != v {
					return
				}
				kept++
				if got := ranks(); !reflect.DeepEqual(got, before) {
					t.Fatalf("%s kept Version %d but moved RankK:\n before %v\n after  %v", what, v, before, got)
				}
			}
			for i, p := range streamPoints(11, 100) {
				write(fmt.Sprintf("Add #%d", i), func() { s.Add(p) })
			}
			for i, p := range streamPoints(13, 100) {
				write(fmt.Sprintf("AddBatch #%d", i), func() { s.AddBatch([]Point{p}) })
			}
			t.Logf("%d of 200 writes kept Version", kept)
			v := s.Version()
			s.Reset()
			if s.Version() == v {
				t.Errorf("Reset kept Version %d", v)
			}
			v = s.Version()
			s.Reset()
			if s.Version() == v {
				t.Errorf("Reset of an empty learner kept Version %d", v)
			}
		})
	}
}
