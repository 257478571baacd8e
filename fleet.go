package selfheal

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"selfheal/internal/core"
)

// Fleet is N independent deterministic service replicas, each with its own
// managed-system target and Figure 3 healing loop, healing concurrent
// fault campaigns through a worker pool. Replicas are isolated by
// construction — replica i's outcomes depend only on its derived seed,
// never on scheduling — unless the fleet is given a shared synopsis
// (WithSynopsis + NewSharedSynopsis), in which case every replica's
// escalations and successful fixes train one fleet-wide knowledge base.
// With WithTargets the fleet is heterogeneous: replicas of different
// target kinds heal their own catalogs' faults while pooling experience
// into that shared knowledge base.
type Fleet struct {
	cfg      config
	replicas []*System
	seeds    []int64
	// gate is the fleet-wide learning freeze switch every replica's
	// Healer shares (FreezeLearning / POST /admin/learning).
	gate *core.Gate
	// draining is set by Drain: campaigns stop starting episodes, the
	// ops plane refuses gossip pushes, and /healthz reports the state.
	draining atomic.Bool
	// active counts episodes currently being healed, so an operator can
	// watch a drain finish (drained = draining && active == 0).
	active atomic.Int64
}

// replicaSeedStride separates replica seed streams; replica 0 keeps the
// base seed, so a Fleet of one is the sequential System, byte for byte.
const replicaSeedStride = 1_000_003

// replicaFaultStride separates replica fault streams the same way.
const replicaFaultStride = 7_907

// NewFleet builds and warms up n replicas configured by the same options
// New accepts, plus WithWorkers. Replica i runs at seed base+i*stride and,
// unless a shared synopsis or per-replica factory supplies one, gets a
// fresh approach instance of the configured kind.
func NewFleet(ctx context.Context, n int, opts ...Option) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("selfheal: fleet of %d replicas", n)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.approach != nil {
		return nil, fmt.Errorf("selfheal: WithApproachInstance cannot be shared across %d replicas; use WithSynopsis(NewSharedSynopsis(...)) or WithApproach", n)
	}
	if cfg.targetInstance != nil {
		return nil, fmt.Errorf("selfheal: WithTargetInstance cannot be shared across fleet replicas; register the kind with RegisterTarget instead")
	}
	if cfg.syn != nil && n > 1 {
		if _, shared := cfg.syn.(*SharedSynopsis); !shared {
			return nil, fmt.Errorf("selfheal: %d replicas learning into one synopsis need NewSharedSynopsis to guard it", n)
		}
	}
	cfg.applyScenarioDefaults()
	if err := cfg.checkMix(); err != nil {
		return nil, err
	}
	fl := &Fleet{cfg: cfg, gate: core.NewGate()}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := cfg.seed + int64(i)*replicaSeedStride
		sink := cfg.sink
		if sink != nil {
			sink = core.ReplicaSink(i, sink)
		}
		sys, err := newSystem(&cfg, cfg.targetKindFor(i), seed, sink)
		if err != nil {
			return nil, fmt.Errorf("selfheal: building replica %d: %w", i, err)
		}
		sys.Healer.Learn = fl.gate
		fl.replicas = append(fl.replicas, sys)
		fl.seeds = append(fl.seeds, seed)
	}
	return fl, nil
}

// Size returns the number of replicas.
func (fl *Fleet) Size() int { return len(fl.replicas) }

// Replica returns replica i's System, for inspection after a campaign.
func (fl *Fleet) Replica(i int) *System { return fl.replicas[i] }

// ReplicaSeed returns the seed replica i runs at — the seed a standalone
// System needs to reproduce that replica's campaign sequentially.
func (fl *Fleet) ReplicaSeed(i int) int64 { return fl.seeds[i] }

// Close closes every replica's System (see System.Close), releasing
// whatever their targets hold outside the process — supervised children,
// temp state. The first error wins; the rest still close.
func (fl *Fleet) Close() error {
	var first error
	for _, sys := range fl.replicas {
		if err := sys.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Campaign describes a random-fault healing campaign over a fleet.
type Campaign struct {
	// Episodes is the total episode count, distributed as evenly as
	// possible across replicas (earlier replicas take the remainder).
	Episodes int
	// FaultSeed seeds the per-replica fault generators; zero derives it
	// from the fleet seed. Replica i draws from FaultSeed+i*7907.
	FaultSeed int64
	// Kinds restricts injected faults (nil means each replica's full
	// target catalog). Every kind is validated against every replica's
	// target spec; a kind outside some replica's catalog fails the
	// campaign up front with an error listing that target's valid kinds.
	Kinds []FaultKind
	// SettleTicks is the healthy-run length between a replica's episodes;
	// zero means 120.
	SettleTicks int
	// BatchSize is the scheduling granularity: how many consecutive
	// episodes a worker heals on one replica before requeueing the replica
	// for whichever worker is idle next (zero means 8). Smaller batches
	// balance a skewed campaign across few workers at more requeue
	// overhead. For isolated replicas scheduling granularity never changes
	// outcomes — each replica's episode sequence depends only on its seeds
	// and always runs in order on that replica — so any BatchSize
	// reproduces the same episodes, byte for byte. A shared knowledge base
	// is the standing exception: replicas deliberately read each other's
	// lessons, so there — as with any shared-KB run — outcomes depend on
	// cross-replica timing, whatever the batch size.
	BatchSize int
}

// defaultCampaignBatch is the work-stealing granularity when
// Campaign.BatchSize is zero.
const defaultCampaignBatch = 8

// ReplicaResult is one replica's share of a campaign.
type ReplicaResult struct {
	// Replica is the replica's index in the fleet.
	Replica int
	// Seed is the replica's derived deterministic seed.
	Seed int64
	// Episodes are the replica's healed episodes, in injection order.
	Episodes []Episode
}

// FleetStats aggregates recovery and time-to-repair over a campaign.
type FleetStats struct {
	// Episodes counts every injected episode.
	Episodes int
	// Detected counts episodes whose failure the monitor declared.
	Detected int
	// Latent counts undetected episodes that never violated the SLO (see
	// Episode.Latent); the rest of the undetected are the detector's
	// misses.
	Latent int
	// Withdrawn counts episodes whose fault was still live at the end
	// and was withdrawn (see Episode.Withdrawn).
	Withdrawn int
	// Recovered counts episodes that ended with a clean service window.
	Recovered int
	// Escalated counts episodes that reached the administrator.
	Escalated int
	// CorrectFirst counts episodes healed by their very first attempt.
	CorrectFirst int
	// Attempts counts fix attempts over every episode.
	Attempts int
	// MeanTTR averages injection-through-recovery over recovered episodes.
	MeanTTR float64
	// MaxTTR is the worst recovered episode's TTR.
	MaxTTR int64
	// totalTTR sums the recovered episodes' TTRs exactly, as integers.
	totalTTR int64
}

// Add folds one episode into the tally.
func (s *FleetStats) Add(ep Episode) {
	s.Episodes++
	s.Attempts += len(ep.Attempts)
	if ep.Detected {
		s.Detected++
	}
	if ep.Latent {
		s.Latent++
	}
	if ep.Withdrawn {
		s.Withdrawn++
	}
	if ep.Escalated {
		s.Escalated++
	}
	if ep.CorrectFirst {
		s.CorrectFirst++
	}
	if ep.Recovered {
		s.Recovered++
		ttr := ep.TTR()
		s.totalTTR += ttr
		s.MeanTTR = float64(s.totalTTR) / float64(s.Recovered)
		s.MaxTTR = max(s.MaxTTR, ttr)
	}
}

// RecoveryRate returns recovered/detected episodes (1 when none were
// detected: an invisible fault costs no downtime).
func (s FleetStats) RecoveryRate() float64 {
	if s.Detected == 0 {
		return 1
	}
	return float64(s.Recovered) / float64(s.Detected)
}

// FleetResult is the outcome of one fleet campaign.
type FleetResult struct {
	// Replicas holds each replica's share, indexed by replica id.
	Replicas []ReplicaResult
	// Stats aggregates the whole campaign.
	Stats FleetStats
}

// campaignShard is one replica's remaining share of a campaign: its
// deterministic fault stream (drawn from the replica target's own
// catalog), how many episodes it still owes, and the episodes healed so
// far. A shard is only ever touched by the worker currently holding its
// token, so it needs no lock; the ready channel's happens-before edge
// hands it between workers.
type campaignShard struct {
	gen       FaultGen
	remaining int
	episodes  []Episode
}

// RunCampaign injects c.Episodes random faults across the fleet and heals
// them concurrently, at most WithWorkers replicas at a time (default: all).
//
// Scheduling is batched work stealing: each replica's share is healed in
// BatchSize-episode slices, and whichever worker goes idle next steals the
// next pending slice from any replica, so a replica with slow episodes
// (escalations at human timescale) cannot pin a worker for its entire
// share. For isolated replicas each episode sequence is deterministic in
// the fleet seed and c.FaultSeed alone — batches of the same replica
// always run in order on that replica — so worker count and batch size
// change wall-clock time only, never outcomes. With a shared knowledge
// base, outcomes additionally depend on the timing of other replicas'
// learn flushes, which no scheduling choice can pin down. Cancelling the
// context stops every replica at its next step; the partial result is
// returned alongside ctx's error.
func (fl *Fleet) RunCampaign(ctx context.Context, c Campaign) (*FleetResult, error) {
	if c.Episodes < 1 {
		return nil, fmt.Errorf("selfheal: campaign of %d episodes", c.Episodes)
	}
	faultSeed := c.FaultSeed
	if faultSeed == 0 {
		faultSeed = fl.cfg.seed + 1
	}
	settle := c.SettleTicks
	if settle == 0 {
		settle = 120
	}
	batch := c.BatchSize
	if batch < 1 {
		batch = defaultCampaignBatch
	}

	n := len(fl.replicas)
	per, extra := c.Episodes/n, c.Episodes%n
	results := make([]ReplicaResult, n)
	shards := make([]campaignShard, n)

	// ready holds the indexes of shards with episodes left and no worker
	// on them. Capacity n: at most one token per shard exists, so sends
	// never block. live closes ready once every shard is exhausted.
	ready := make(chan int, n)
	var live sync.WaitGroup
	for i := 0; i < n; i++ {
		results[i] = ReplicaResult{Replica: i, Seed: fl.seeds[i]}
		gen, err := fl.replicas[i].Target().NewFaults(faultSeed+int64(i)*replicaFaultStride, c.Kinds...)
		if err != nil {
			return nil, fmt.Errorf("selfheal: campaign faults for replica %d: %w", i, err)
		}
		shards[i] = campaignShard{
			gen:       gen,
			remaining: per + boolToInt(i < extra),
		}
		if shards[i].remaining > 0 {
			live.Add(1)
			ready <- i
		}
	}
	go func() { live.Wait(); close(ready) }()

	workers := fl.cfg.workers
	if workers < 1 || workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				if fl.runShardBatch(ctx, i, &shards[i], batch, settle) {
					ready <- i
				} else {
					live.Done()
				}
			}
		}()
	}
	wg.Wait()

	res := &FleetResult{Replicas: results}
	for i := range results {
		results[i].Episodes = shards[i].episodes
	}
	for _, rr := range results {
		for _, ep := range rr.Episodes {
			res.Stats.Add(ep)
		}
	}
	return res, ctx.Err()
}

// runShardBatch heals up to batch episodes of replica i's remaining share
// and reports whether the shard still has episodes left. When the shard
// finishes (exhausted or cancelled) any learn events the replica buffered
// under WithLearnBatch are flushed so no labels are stranded.
func (fl *Fleet) runShardBatch(ctx context.Context, i int, sh *campaignShard, batch, settle int) bool {
	sys := fl.replicas[i]
	for e := 0; e < batch && sh.remaining > 0; e++ {
		// A drain is a cancel that lets in-flight episodes finish: both
		// zero the shard so the campaign winds down at the next batch
		// boundary instead of abandoning a half-healed fault.
		if ctx.Err() != nil || fl.draining.Load() {
			sh.remaining = 0
			break
		}
		fl.active.Add(1)
		ep := sys.HealEpisode(ctx, sh.gen.Next())
		fl.active.Add(-1)
		sh.episodes = append(sh.episodes, ep)
		sh.remaining--
		sys.StepN(settle)
	}
	if sh.remaining > 0 {
		return true
	}
	sys.Healer.FlushLearned()
	return false
}

// FreezeLearning freezes (true) or thaws (false) the fleet-wide learn
// path and reports whether the call changed the state. While frozen,
// replicas still detect, recommend and heal from everything already
// learned, but no new observations enter the knowledge base — frozen
// observations are dropped, not deferred. The same switch backs
// POST /admin/learning on the ops plane.
func (fl *Fleet) FreezeLearning(freeze bool) bool { return fl.gate.Freeze(freeze) }

// LearningFrozen reports whether the fleet's learn path is frozen.
func (fl *Fleet) LearningFrozen() bool { return fl.gate.Frozen() }

// Drain puts the fleet into drain: running campaigns stop starting new
// episodes at their next batch boundary, in-flight episodes finish, and
// a federated node's ops plane refuses gossip pushes and reports
// "draining"/"drained" on /healthz. Idempotent; there is no undrain —
// a drain precedes shutdown.
func (fl *Fleet) Drain() { fl.draining.Store(true) }

// Draining reports whether Drain was called.
func (fl *Fleet) Draining() bool { return fl.draining.Load() }

// ActiveEpisodes counts episodes currently being healed; after Drain it
// only falls, and zero means the fleet is drained.
func (fl *Fleet) ActiveEpisodes() int64 { return fl.active.Load() }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
