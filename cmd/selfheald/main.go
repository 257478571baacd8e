// Command selfheald runs simulated multitier service replicas under a
// random fault campaign with self-healing loops attached. It is a pure
// consumer of the healing event stream: every line below comes from the
// typed events (FaultInjected, Detected, AttemptApplied, Escalated,
// Recovered) the healers emit, not from dissecting episode records.
//
// The managed system is pluggable: -target picks any registered target
// kind, and a comma-separated list builds a heterogeneous fleet whose
// replicas round-robin over the kinds (pair it with -share to pool their
// experience in one knowledge base).
//
// The knowledge base the fleet learns survives the process: -kb-out
// saves it, atomically, as a portable binary snapshot (symptom names
// recorded next to the vectors; see KNOWLEDGE_BASES.md), -kb-in preloads
// one saved anywhere — by this daemon, a staging bootstrap, or a kbtool
// merge of many fleets — regardless of the order in which the writer
// registered its target kinds.
//
// With -serve and/or -peers the daemon is one node of a federated
// knowledge plane: -serve exposes the ops endpoints (/healthz, /metrics,
// /kb/snapshot, /kb/delta) and -peers keeps one long-poll parked on each
// other daemon's /kb/delta, pulling whatever it publishes as it is
// published, so a fleet of daemons converges on pooled experience at
// runtime with no human carrying files. A serving daemon
// stays up after its campaign (episodes may be 0 for a pure
// hub/aggregator) until SIGINT/SIGTERM; shutdown is graceful either way:
// the campaign context is cancelled, the partial result is reported
// truthfully, and -kb-out is still written.
//
// -gossip-fanout adds the push plane on top: every publish is pushed to
// that many sampled peers immediately (POST /kb/push), so new fixes
// spread in milliseconds while the parked polls repair anything a
// dropped push missed. -compact bounds the knowledge base's memory, compacting
// (dedup, near-duplicate merge within -compact-radius, oldest-first
// eviction) whenever the cap is exceeded. The ops flags (-serve, -peers,
// -gossip-fanout, -auth-token, -admin-token, -rate-limit, -request-log)
// are the fields of the node's selfheal.NodeSpec.
//
//	selfheald -episodes 20 -approach hybrid -seed 7
//	selfheald -episodes 64 -replicas 8 -workers 4 -share -batch 1
//	selfheald -episodes 24 -replicas 4 -target auction,replicated -share
//	selfheald -episodes 32 -target replicated -kb-out fleetB.kb
//	selfheald -episodes 32 -serve :8701 -kb-out hub.kb
//	selfheald -episodes 32 -serve :8702 -peers http://hub:8701
//	selfheald -episodes 0 -serve :8700 -peers http://a:8701,http://b:8702
//	selfheald -episodes 0 -serve :8700 -peers http://a:8701 -gossip-fanout 3 -compact 100000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"selfheal"
)

// console prints the event stream and keeps the operator's tallies. It is
// mutex-guarded because fleet replicas emit concurrently.
type console struct {
	mu        sync.Mutex
	injected  int
	detected  int
	recovered int
	escalated int
	firstTry  int
	ttrSum    int64
}

func (c *console) Emit(ev selfheal.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tag := fmt.Sprintf("[r%02d %-10s ep%03d t=%-7d]", ev.Replica, ev.Target, ev.Episode, ev.Tick)
	switch ev.Kind {
	case selfheal.EventFaultInjected:
		c.injected++
		target := ev.Fault.Target()
		if target == "" {
			target = "—"
		}
		fmt.Printf("%s fault %-26s target=%s\n", tag, ev.Fault.Kind(), target)
	case selfheal.EventDetected:
		c.detected++
		fmt.Printf("%s detected\n", tag)
	case selfheal.EventAttemptApplied:
		mark := "✗"
		if ev.Success {
			mark = "✓"
		}
		if ev.Success && ev.Attempt == 1 {
			c.firstTry++
		}
		fmt.Printf("%s   %s attempt %d: %v (confidence %.2f)\n", tag, mark, ev.Attempt, ev.Action, ev.Confidence)
	case selfheal.EventEscalated:
		c.escalated++
		fmt.Printf("%s   escalated to administrator\n", tag)
	case selfheal.EventRecovered:
		c.recovered++
		c.ttrSum += ev.TTR
		fmt.Printf("%s recovered in %ds\n", tag, ev.TTR)
	case selfheal.EventScenarioInject:
		c.injected++
		sev := ""
		if ev.Severity > 0 && ev.Severity < 1 {
			sev = fmt.Sprintf(" severity=%.2f (grey)", ev.Severity)
		}
		fmt.Printf("%s scenario inject %-18q %v target=%s%s\n", tag, ev.Label, ev.Fault.Kind(), ev.Fault.Target(), sev)
	case selfheal.EventScenarioClear:
		fmt.Printf("%s scenario clear  %-18q (scripted quiet phase)\n", tag, ev.Label)
	case selfheal.EventScenarioWorkload:
		fmt.Printf("%s scenario workload: %s\n", tag, ev.Label)
	}
}

func (c *console) summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := fmt.Sprintf("summary: recovered %d/%d detected (%d injected), first-attempt %d, escalated %d",
		c.recovered, c.detected, c.injected, c.firstTry, c.escalated)
	if c.recovered > 0 {
		s += fmt.Sprintf(", mean TTR %.0fs", float64(c.ttrSum)/float64(c.recovered))
	}
	return s
}

// settings is one parsed command line: the node spec the ops flags bind
// into, and the campaign around it.
type settings struct {
	spec                               selfheal.NodeSpec
	episodes, replicas, workers, batch int
	approach, target, faults, mix      string
	targetSet                          bool // -target given explicitly
	seed                               int64
	share                              bool
	kbIn, kbOut                        string
	compact                            selfheal.Compaction
	scenario                           string
	scenarioHorizon                    int64
	scenarioJSON                       bool
}

// parseFlags parses a selfheald command line (without the program name).
func parseFlags(args []string) (*settings, error) {
	s := &settings{}
	fs := flag.NewFlagSet("selfheald", flag.ContinueOnError)
	fs.IntVar(&s.episodes, "episodes", 12, "total failure episodes to inject and heal (0: no campaign, serve/sync only)")
	fs.IntVar(&s.replicas, "replicas", 1, "service replicas healing concurrently")
	fs.IntVar(&s.workers, "workers", 0, "max concurrently-healing replicas (0 = all)")
	fs.StringVar(&s.approach, "approach", string(selfheal.ApproachHybrid), "healing approach (see ApproachKinds)")
	fs.StringVar(&s.target, "target", string(selfheal.TargetAuction), "managed-system target kind(s), comma-separated for a heterogeneous fleet (see TargetKinds)")
	fs.StringVar(&s.faults, "faults", "", "comma-separated fault kinds to inject (canonical names, e.g. hardware-degradation; empty = each target's full catalog)")
	fs.StringVar(&s.mix, "mix", "", "workload mix name from the target's spec (empty = target default)")
	fs.Int64Var(&s.seed, "seed", 7, "deterministic seed")
	fs.BoolVar(&s.share, "share", false, "replicas learn into one shared knowledge base")
	fs.IntVar(&s.batch, "batch", 0, "flush learn events every N episodes in one batch (0 = learn per attempt)")
	fs.StringVar(&s.kbIn, "kb-in", "", "preload the knowledge base from this snapshot file before the campaign (implies -share)")
	fs.StringVar(&s.kbOut, "kb-out", "", "save the knowledge base to this snapshot file on exit (implies -share)")
	fs.StringVar(&s.spec.Serve, "serve", "", "serve the ops plane (/healthz /metrics /kb/...) on this address and stay up until SIGINT (implies -share)")
	fs.Func("peers", "comma-separated peer ops-plane URLs to long-poll for knowledge deltas (implies -share)", func(v string) error {
		s.spec.Peers = splitList(v)
		return nil
	})
	fs.IntVar(&s.spec.GossipFanout, "gossip-fanout", 0, "push every knowledge-base publish to this many peers sampled from -peers (0 = pull-only federation)")
	fs.IntVar(&s.compact.MaxPoints, "compact", 0, "bound the shared knowledge base to this many points, compacting when exceeded (0 = unbounded; implies -share)")
	fs.Float64Var(&s.compact.MergeRadius, "compact-radius", 0, "merge near-duplicate observations within this euclidean distance when compacting")
	fs.StringVar(&s.scenario, "scenario", "", "run a scripted adversarial scenario instead of the random campaign: a library name ("+strings.Join(selfheal.ScenarioNames(), ", ")+") or a JSON file path")
	fs.Int64Var(&s.scenarioHorizon, "scenario-horizon", 0, "override the scenario's horizon in ticks (0 = as scripted)")
	fs.BoolVar(&s.scenarioJSON, "scenario-json", false, "print the resolved scenario as canonical JSON and exit")
	fs.StringVar(&s.spec.AuthToken, "auth-token", "", "bearer token required to read the ops plane (empty = reads open)")
	fs.StringVar(&s.spec.AdminToken, "admin-token", "", "bearer token enabling the POST /admin/* verbs (empty = admin verbs disabled)")
	fs.Float64Var(&s.spec.RateLimit, "rate-limit", 0, "ops-plane requests per second allowed per remote address (0 = unlimited)")
	fs.BoolVar(&s.spec.RequestLog, "request-log", false, "log one line per ops-plane request to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { s.targetSet = s.targetSet || f.Name == "target" })
	return s, nil
}

// federated reports whether the command line makes this daemon a node
// of the knowledge plane.
func (s *settings) federated() bool { return s.spec.Serve != "" || len(s.spec.Peers) > 0 }

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(v string) []string {
	var out []string
	for _, f := range strings.Split(v, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	s, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	// One context gates everything; SIGINT/SIGTERM cancels it, which
	// stops the campaign at its next step and starts the graceful
	// shutdown below — no episode is lost silently and -kb-out is still
	// written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var targetKinds []selfheal.TargetKind
	for _, name := range splitList(s.target) {
		targetKinds = append(targetKinds, selfheal.TargetKind(name))
	}
	if len(targetKinds) == 0 {
		targetKinds = []selfheal.TargetKind{selfheal.TargetAuction}
	}
	// Validate -target against the registry up front: a typo dies here
	// with the registered kinds listed, not replicas deep into fleet
	// construction.
	for _, k := range targetKinds {
		if _, ok := selfheal.TargetSpecFor(k); !ok {
			var names []string
			for _, reg := range selfheal.TargetKinds() {
				names = append(names, string(reg))
			}
			fmt.Fprintf(os.Stderr, "selfheald: unknown target %q (registered targets: %s)\n",
				k, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	var faultKinds []selfheal.FaultKind
	for _, name := range splitList(s.faults) {
		k, err := selfheal.ParseFaultKind(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			os.Exit(2)
		}
		faultKinds = append(faultKinds, k)
	}

	// -scenario: library name first, then file path. A scenario pinned to
	// a target kind selects that kind unless -target was given explicitly.
	var scen *selfheal.Scenario
	if s.scenario != "" {
		scen, err = selfheal.ScenarioByName(s.scenario)
		if err != nil {
			scen, err = selfheal.LoadScenarioFile(s.scenario)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			os.Exit(2)
		}
		if s.scenarioHorizon > 0 {
			scen.Horizon = s.scenarioHorizon
		}
		if s.scenarioJSON {
			if err := selfheal.EncodeScenario(os.Stdout, scen); err != nil {
				fmt.Fprintln(os.Stderr, "selfheald:", err)
				os.Exit(1)
			}
			return
		}
	}

	sink := &console{}
	opts := []selfheal.Option{
		selfheal.WithSeed(s.seed),
		selfheal.WithApproach(selfheal.ApproachKind(s.approach)),
		selfheal.WithWorkloadMix(s.mix),
		selfheal.WithEventSink(sink),
	}
	if scen == nil || s.targetSet || scen.Target == "" {
		opts = append(opts, selfheal.WithTargets(targetKinds...))
	}
	if scen != nil {
		opts = append(opts, selfheal.WithScenario(scen))
	}
	var kb *selfheal.SharedSynopsis
	if s.share || s.kbIn != "" || s.kbOut != "" || s.federated() || s.compact.MaxPoints > 0 {
		// A shared knowledge base means FixSym over one synopsis; the
		// -approach flag is superseded. -kb-in/-kb-out and the federation
		// flags force one so the fleet's whole experience lives in a
		// single persistable, versioned KB.
		kb = selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
		if s.compact.MaxPoints > 0 {
			if err := kb.EnableCompaction(s.compact); err != nil {
				fmt.Fprintln(os.Stderr, "selfheald:", err)
				os.Exit(2)
			}
		}
		opts = append(opts, selfheal.WithSynopsis(kb))
	}
	if s.workers != 0 {
		opts = append(opts, selfheal.WithWorkers(s.workers))
	}
	if s.batch != 0 {
		opts = append(opts, selfheal.WithLearnBatch(s.batch))
	}

	fleet, err := selfheal.NewFleet(ctx, s.replicas, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfheald:", err)
		os.Exit(2)
	}
	// Targets may hold real resources (the process target supervises a
	// live child); release them on every exit path below.
	defer fleet.Close()

	var ops *selfheal.Ops
	if s.federated() {
		ops, err = fleet.ServeOps(ctx, s.spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			os.Exit(2)
		}
		if ops.Addr() != "" {
			fmt.Printf("selfheald: ops plane listening on http://%s\n", ops.Addr())
		}
		for _, p := range ops.Peers() {
			fmt.Printf("selfheald: long-polling %s for knowledge deltas\n", p.URL)
		}
	}

	if s.kbIn != "" {
		// Load after NewFleet: the replicas' warmups have registered this
		// process's metric schemas, so the snapshot's vectors remap into
		// an already-populated symptom space.
		n, err := loadKB(s.kbIn, kb)
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			os.Exit(2)
		}
		fmt.Printf("selfheald: knowledge base preloaded from %s (%d signatures)\n", s.kbIn, n)
	}
	fmt.Printf("selfheald: %d episodes over %d replica(s), approach=%s, target=%s, seed=%d, shared-kb=%v, learn-batch=%d\n\n",
		s.episodes, s.replicas, fleet.Replica(0).Approach().Name(), s.target, s.seed, kb != nil, s.batch)

	interrupted := false
	if scen != nil {
		fmt.Printf("selfheald: scenario %q (%s) over %d ticks\n\n", scen.Name, scen.Description, scen.Horizon)
		st, err := fleet.RunScenario(ctx, nil)
		switch {
		case err == nil:
		case ctx.Err() != nil:
			interrupted = true
			fmt.Fprintln(os.Stderr, "\nselfheald: interrupted mid-scenario")
		default:
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			fleet.Close()
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(st.Format())
		fmt.Println(sink.summary())
	} else if s.episodes > 0 {
		result, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: s.episodes, Kinds: faultKinds})
		switch {
		case err == nil:
		case ctx.Err() != nil:
			// Signal-driven cancellation: report the partial campaign
			// truthfully and carry on with the graceful shutdown.
			interrupted = true
			completed := 0
			if result != nil {
				completed = result.Stats.Episodes
			}
			fmt.Fprintf(os.Stderr, "\nselfheald: interrupted: %d/%d episodes completed\n", completed, s.episodes)
		default:
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			fleet.Close()
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println(sink.summary())
	}

	if ops != nil && !interrupted && ctx.Err() == nil {
		if s.spec.Serve != "" {
			fmt.Println("selfheald: campaign done; serving until SIGINT/SIGTERM")
		} else {
			fmt.Println("selfheald: campaign done; syncing peers until SIGINT/SIGTERM")
		}
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "selfheald: shutting down")
	}

	if ops != nil {
		// The signal context is already cancelled here; give in-flight
		// ops requests their own small drain window.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ops.Close(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "selfheald: ops shutdown:", err)
		}
		cancel()
	}
	if s.kbOut != "" {
		if err := saveKB(s.kbOut, kb); err != nil {
			fmt.Fprintln(os.Stderr, "selfheald:", err)
			fleet.Close()
			os.Exit(1)
		}
		what := ""
		if interrupted {
			what = " (partial campaign)"
		}
		fmt.Printf("knowledge base saved to %s (%d signatures, seq %d)%s\n", s.kbOut, kb.TrainingSize(), kb.Seq(), what)
	}
}

// loadKB replays a knowledge-base snapshot into the fleet's shared
// synopsis and reports how many signatures it now holds.
func loadKB(path string, kb *selfheal.SharedSynopsis) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := selfheal.LoadKnowledgeBase(f, kb); err != nil {
		return 0, err
	}
	return kb.TrainingSize(), nil
}

// saveKB writes the fleet's shared synopsis as a snapshot, atomically: a
// temporary file in path's directory is written and synced, then renamed
// over path, so a failed or interrupted save leaves the previous file
// whole.
func saveKB(path string, kb selfheal.Synopsis) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // fails harmlessly once renamed
	err = selfheal.SaveKnowledgeBase(f, kb)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
