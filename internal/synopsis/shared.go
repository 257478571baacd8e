package synopsis

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Shared turns any synopsis into a fleet-wide knowledge base — the
// fleet-scale reading of §5.1's portability argument: every replica's
// administrator escalation or successful fix becomes training data for all
// of them.
//
// It is read-optimized for the healing hot path, where Suggest/RankK calls
// from N concurrently-healing replicas vastly outnumber writes. Readers
// load an immutable snapshot through one atomic pointer and never take a
// lock; writers serialize behind a mutex, fold their points into the
// authoritative base — a whole batch at a time through AddBatch — and
// republish a fresh snapshot once per write. Snapshots are structural
// clones (Learner.Clone): cheap copies sharing the immutable training
// points. Updates remain coordinate-wise and serialized, the regime in
// which concurrent learners over a shared model are known to behave
// (cyclic block-coordinate descent); batching coarsens the coordinate
// steps without changing that discipline.
//
// A reader may act on a snapshot that is one write behind — exactly the
// staleness any replica already tolerates between its own episodes.
//
// Every write also advances a monotonic publish sequence and appends its
// observations to an arrival log, so a federation peer that was current
// at sequence s can fetch exactly the observations published since —
// DeltaSince(s) — in O(new points), never O(KB). The sequence is the
// version of the knowledge base: equal sequences on one node mean equal
// contents, and it is what the ops plane serves as /kb/delta's cursor and
// ETag.
type Shared struct {
	name string
	mu   sync.Mutex // serializes writers; guards base and the delta log
	base Learner
	// snap is the published read snapshot, never nil.
	snap atomic.Pointer[Synopsis]

	// seq is the publish sequence, bumped once per write (an AddBatch is
	// one write). Readable lock-free; written under mu.
	seq atomic.Uint64
	// logPts and logSeqs are the arrival log: logPts[i] was published by
	// the write that advanced the sequence to logSeqs[i]. logSeqs is
	// non-decreasing, which is what lets DeltaSince binary-search its
	// cursor instead of scanning the history. Log entries hold the
	// vectors the writers handed in. Every publish clones the base, so its
	// exemplar store is shared and keeps those same vectors rather than
	// re-pointing them at its trees' packed rows (exemplars.adopt): the
	// log costs one slice header and one uint64 per observation, not a
	// copy of the vectors. The one exception is a compaction's retrain,
	// whose fresh store adopts its rows before the next publish.
	logPts  []Point
	logSeqs []uint64

	// watch is closed and replaced on every publish: Changed hands it to
	// long-poll waiters, who re-check the sequence once it closes. hooks
	// observe every publish (the ops plane's kb-publish event) and run
	// after the lock is released, so a hook may freely call back into
	// DeltaSince. compact, when set, bounds the arrival log.
	watch   chan struct{}
	hooks   []func(seq uint64)
	compact *Compaction
}

// NewShared wraps base for concurrent use. The base must no longer be used
// directly while the wrapper is live.
func NewShared(base Learner) *Shared {
	s := &Shared{name: "shared-" + base.Name(), base: base}
	s.republish()
	return s
}

// reader returns the published snapshot, safe to read with no lock.
func (s *Shared) reader() Synopsis { return *s.snap.Load() }

// republish installs a fresh snapshot of the base. Callers hold s.mu (or,
// in NewShared, the only reference).
func (s *Shared) republish() {
	sn := s.base.Clone()
	s.snap.Store(&sn)
}

// Name implements Synopsis. The name is fixed at construction; no lock.
func (s *Shared) Name() string { return s.name }

// Add implements Synopsis: one observation, one snapshot republish. The
// observation is always logged for federation, but the clone+republish is
// skipped when it did not change the learner's Version.
func (s *Shared) Add(p Point) {
	s.mu.Lock()
	before := s.base.Version()
	s.base.Add(p)
	s.log(p)
	if s.base.Version() != before {
		s.republish()
	}
	s.maybeCompactLocked()
	seq, hooks := s.notifyLocked()
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(seq)
	}
}

// AddBatch implements Synopsis: the whole batch is applied to the base
// under one lock acquisition and the snapshot republished once — the write
// path the fleet's per-episode learn flush rides. The batch advances the
// publish sequence by one, however many points it carries; an empty
// batch publishes nothing.
func (s *Shared) AddBatch(ps []Point) {
	if len(ps) == 0 {
		return
	}
	s.mu.Lock()
	before := s.base.Version()
	s.base.AddBatch(ps)
	s.log(ps...)
	if s.base.Version() != before {
		s.republish()
	}
	s.maybeCompactLocked()
	seq, hooks := s.notifyLocked()
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(seq)
	}
}

// notifyLocked wakes every Changed waiter and captures the publish hooks
// plus the sequence they should see; the caller runs the hooks after
// releasing s.mu. Callers hold s.mu.
func (s *Shared) notifyLocked() (uint64, []func(uint64)) {
	if s.watch != nil {
		close(s.watch)
		s.watch = nil
	}
	return s.seq.Load(), s.hooks
}

// Changed returns a channel that is closed at the next publish. The
// long-poll pattern is: take the channel, re-check Seq against your
// cursor (a publish may have landed in between), then wait on the
// channel. Each publish retires the channel, so take a fresh one per
// wait.
func (s *Shared) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watch == nil {
		s.watch = make(chan struct{})
	}
	return s.watch
}

// OnPublish registers fn to run after every publish with the sequence it
// produced — the hook the ops plane turns into a kb-publish event. Hooks
// run synchronously on the writer's goroutine but outside the knowledge
// base's lock, so they may call DeltaSince; they must not write back into
// the knowledge base on the same goroutine or they will recurse.
func (s *Shared) OnPublish(fn func(seq uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// EnableCompaction switches the knowledge base to bounded-memory mode
// (see Compaction): compaction Resets the base learner and retrains it
// from the compacted history.
func (s *Shared) EnableCompaction(cfg Compaction) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compact = &cfg
	return nil
}

// maybeCompactLocked compacts when the arrival log has outgrown the
// configured cap, shrinking past it for hysteresis so the next
// quarter-cap of writes is compaction-free. Callers hold s.mu.
func (s *Shared) maybeCompactLocked() {
	if s.compact == nil || s.compact.MaxPoints <= 0 || len(s.logPts) <= s.compact.MaxPoints {
		return
	}
	target := s.compact.MaxPoints - s.compact.MaxPoints/compactTargetDivisor
	s.compactLocked(target)
}

// compactLocked rewrites the knowledge base as the compacted form of its
// arrival log: the base learner is Reset and retrained on the survivors,
// and the log is republished whole under one fresh sequence — the
// snapshot GC is itself a publish, so a federation cursor that predates
// it re-pulls the full compacted history and the peer's dedup absorbs
// the overlap. Returns the number of observations dropped. Callers hold
// s.mu.
func (s *Shared) compactLocked(target int) int {
	kept := CompactPoints(s.logPts, *s.compact, target)
	dropped := len(s.logPts) - len(kept)
	if dropped == 0 {
		return 0
	}
	s.base.Reset()
	s.base.AddBatch(kept)
	seq := s.seq.Load() + 1
	s.seq.Store(seq)
	s.logPts = kept
	s.logSeqs = make([]uint64, len(kept))
	for i := range s.logSeqs {
		s.logSeqs[i] = seq
	}
	s.republish()
	return dropped
}

// Compact compacts now, regardless of cap pressure: with a cap
// configured it compacts down to the cap, otherwise it only merges
// duplicates. It reports how many observations were dropped. Compaction
// must have been enabled first.
func (s *Shared) Compact() (int, error) {
	s.mu.Lock()
	if s.compact == nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("synopsis: %s: compaction not enabled", s.name)
	}
	dropped := s.compactLocked(s.compact.MaxPoints)
	var seq uint64
	var hooks []func(uint64)
	if dropped > 0 {
		seq, hooks = s.notifyLocked()
	}
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(seq)
	}
	return dropped, nil
}

// LogSize returns the arrival log's length — the number of retained
// observations, the quantity a Compaction cap bounds. (TrainingSize can
// be smaller: learners that discard failures never train on them, but
// the log keeps them for federation until compaction evicts them.)
func (s *Shared) LogSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.logPts)
}

// log appends one write's points to the arrival log under the next
// sequence number. Callers hold s.mu.
func (s *Shared) log(ps ...Point) {
	seq := s.seq.Load() + 1
	s.seq.Store(seq)
	for _, p := range ps {
		s.logPts = append(s.logPts, p)
		s.logSeqs = append(s.logSeqs, seq)
	}
}

// Seq returns the current publish sequence: zero for a knowledge base no
// write has touched, and strictly larger after every Add or AddBatch. It
// is safe to call concurrently with writes (lock-free read).
func (s *Shared) Seq() uint64 { return s.seq.Load() }

// DeltaSince returns a copy of every observation published by writes
// after sequence since, in arrival order, together with the sequence the
// returned history is current to (pass it back as the next since). A
// caller that is already current gets (nil, seq). Cost is proportional to
// the observations returned, not to the knowledge base: the arrival log
// is binary-searched for the cursor.
//
// The log records what was written, so negatives (failed attempts) ride
// along exactly as they do in a full snapshot; the receiving learner
// decides what to keep, as it would on Replay.
func (s *Shared) DeltaSince(since uint64) ([]Point, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq.Load()
	if since >= seq {
		return nil, seq
	}
	// First log index published after since.
	lo, hi := 0, len(s.logSeqs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.logSeqs[mid] <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return append([]Point(nil), s.logPts[lo:]...), seq
}

// Suggest implements Synopsis, reading the current snapshot lock-free.
func (s *Shared) Suggest(x []float64, filter *ActionFilter) (Suggestion, bool) {
	return s.reader().Suggest(x, filter)
}

// RankK implements Synopsis, reading the current snapshot lock-free.
func (s *Shared) RankK(x []float64, k int) []Suggestion {
	return s.reader().RankK(x, k)
}

// TrainingSize implements Synopsis.
func (s *Shared) TrainingSize() int {
	return s.reader().TrainingSize()
}

// Export implements Synopsis, exporting the current snapshot.
func (s *Shared) Export() ([]Point, error) { return s.reader().Export() }
