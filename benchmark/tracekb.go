package main

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"time"

	"selfheal/internal/synopsis"
)

// traceKB runs the kb-readwrite window with every knowledge-base call as a
// span, then times the calls the window does not make: bulk load, snapshot
// capture and replay, compaction, and a write that teaches nothing.
func traceKB(ctx context.Context, e env) (*report, error) {
	rep := newReport()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := setupKB(ctx, e)
	if err != nil {
		return nil, err
	}
	// Everything but the knowledge base and the inputs it shares its
	// vectors with is garbage by now.
	runtime.GC()
	runtime.ReadMemStats(&after)

	tr := newTracer()
	w := runKBWindow(ctx, e, s, tr)
	kbOracle(rep, s, w, e.scaled(kbOracleQueries/4, 5))
	rep.attempted = len(w.readLat) + len(w.writeLat)

	m := rep.metrics
	m["synopsis.shared.suggest_ns"] = mean(w.suggestLat) * 1e9
	m["synopsis.shared.rankk3_ns"] = mean(w.rankLat) * 1e9
	p99, _ := tail(w.readLat, 0.99)
	m["synopsis.shared.suggest_p99_us"] = p99 * 1e6
	m["synopsis.shared.addbatch_us"] = mean(w.writeCall) * 1e6
	p99, _ = tail(w.writeCall, 0.99)
	m["synopsis.shared.addbatch_p99_us"] = p99 * 1e6
	late, _ := tail(w.writeLate, 0.95)
	m["kb.writer_late_p95_us"] = late * 1e6
	m["synopsis.deltasince64_us"] = mean(w.deltaLat) * 1e6
	m["synopsis.bulkload_ms"] = float64(s.bulkLoad.Microseconds()) / 1e3
	m["synopsis.bytes_per_point"] = ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(len(s.in.preload)))

	// A batch of failed attempts teaches a nearest-neighbour learner
	// nothing, so Shared must not clone for it: such a write should cost a
	// small fraction of one that carries a success.
	const writes = 500
	teach, noop := make([]synopsis.Point, 1), make([]synopsis.Point, 1)
	t0 := time.Now()
	for i := 0; i < writes; i++ {
		teach[0] = s.in.preload[i]
		s.kb.AddBatch(teach)
	}
	teaching := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < writes; i++ {
		noop[0] = s.in.preload[i]
		noop[0].Success = false
		s.kb.AddBatch(noop)
	}
	m["synopsis.shared.republish_ratio"] = ratio(float64(time.Since(t0)), float64(teaching))

	// Save, load and compaction are timed on a second knowledge base
	// holding the preload alone: successes only, so the snapshot's point
	// count can be checked against what the learner trains on.
	fresh := synopsis.NewShared(synopsis.NewNearestNeighbor())
	fresh.AddBatch(s.in.preload)
	t0 = time.Now()
	buf, err := encodeSnapshot(fresh)
	if err != nil {
		return nil, err
	}
	m["synopsis.capture_encode_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	t0 = time.Now()
	snap, err := synopsis.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if err := snap.Replay(synopsis.NewNearestNeighbor(), nil); err != nil {
		return nil, err
	}
	m["synopsis.decode_replay_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	if got, want := len(snap.Points), fresh.TrainingSize(); got != want {
		rep.fail("snapshot holds %d points, knowledge base trains on %d", got, want)
	}

	// Compaction to a quarter. It is off by default, so this moves nothing
	// end to end; it is here so the first change that turns it on has a
	// base to compare with.
	limit := fresh.LogSize() / 4
	if err := fresh.EnableCompaction(synopsis.Compaction{MaxPoints: limit}); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if _, err := fresh.Compact(); err != nil {
		return nil, err
	}
	m["synopsis.compact_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	if got := fresh.LogSize(); got > limit {
		rep.fail("compaction left %d points, cap is %d", got, limit)
	}

	spans := filepath.Join(filepath.Dir(e.workDir), "spans-kb-readwrite.jsonl")
	if err := tr.writeFile(spans); err != nil {
		return nil, err
	}
	rep.notes["spans"] = spans
	return rep, nil
}
