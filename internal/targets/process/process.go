// Package process implements the supervisor target: a targets.Target
// whose managed system is a real OS process, not a simulator. The
// supervisor spawns the child with exec, captures its output, probes an
// HTTP health endpoint once per tick, and synthesizes the probe's
// latency/error observations into the same detect.Sample and metric
// series the simulated targets emit — so the unchanged Figure 3 loop
// (detect → diagnose → repair, learned synopses and all) heals real
// processes.
//
// Faults are real injections (SIGKILL, SIGSTOP, config-file
// corruption) and fixes are real actions (SIGCONT thaw, graceful
// restart under an exponential-backoff policy, kill-and-respawn
// failover, config rollback, full restart). Ticks cost wall time: the
// target implements targets.Clocked with a wall clock at its tick
// period, and targets.Tuner to shrink the monitoring cadence from
// simulator scale (240-tick warmups) to something that fits real
// seconds. Unlike the simulator targets, a supervised process is NOT
// deterministic in Config.Seed — real scheduling and real sockets see
// to that; only the fault draw order is.
package process

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/clock"
	"selfheal/internal/detect"
	"selfheal/internal/metrics"
	"selfheal/internal/sim"
	"selfheal/internal/targets"
	"selfheal/internal/trace"
)

// Name is the registered target kind.
const Name = "process"

// DefaultGoodConfig is the known-good config written when Config.
// GoodConfig is empty — the format cmd/crashyd reads.
var DefaultGoodConfig = []byte("{\"latency_ms\": 2, \"fail_rate\": 0}\n")

// DefaultCorruptConfig is what operator-config corruption writes when
// Config.CorruptConfig is empty: truncated JSON, the classic fat-
// fingered edit.
var DefaultCorruptConfig = []byte("{\"latency_ms\": 2, \"fail_rate\":\n")

// Config parameterizes one supervised process.
type Config struct {
	// Component labels the process in metrics, paths and fix targets
	// (default "svc").
	Component string
	// Command is the child's argv. The tokens {addr} and {config} are
	// substituted with the listen address and config path; when a token
	// appears nowhere, "-addr <addr>" / "-config <path>" flags are
	// appended instead, so a plain binary name works out of the box.
	Command []string
	// Env is extra environment for the child (KEY=VALUE).
	Env []string
	// Dir is the child's working directory ("" = inherit).
	Dir string
	// Addr is the address the child serves on ("" = allocate a free
	// 127.0.0.1 port).
	Addr string
	// HealthPath is the liveness endpoint probed every tick (default
	// "/healthz").
	HealthPath string
	// MetricsPath, when set, names a /metrics-style endpoint scraped
	// every tick for the gauges in ScrapeKeys ("name value" lines).
	MetricsPath string
	// ScrapeKeys declares which scraped gauges become metric dimensions.
	ScrapeKeys []string
	// ConfigPath is the child's config file, the thing operator-config
	// faults corrupt and FixRestoreConfig rolls back ("" = a temp file
	// owned by the target).
	ConfigPath string
	// GoodConfig is the known-good config content (nil = DefaultGoodConfig).
	GoodConfig []byte
	// CorruptConfig is what corruption writes (nil = DefaultCorruptConfig).
	CorruptConfig []byte
	// TickPeriod paces the harness: one tick, one probe (default 50ms).
	TickPeriod time.Duration
	// ProbeTimeout bounds each health probe (default 250ms). It is also
	// the latency a frozen process "costs" per tick, so keep it a small
	// multiple of TickPeriod.
	ProbeTimeout time.Duration
	// StartTimeout bounds the wait for the first healthy probe at
	// construction (default 5s).
	StartTimeout time.Duration
	// Grace is the SIGTERM→SIGKILL window on graceful stops (default 300ms).
	Grace time.Duration
	// Backoff is the crash-loop respawn policy (zero fields = DefaultBackoff).
	Backoff Backoff
	// Seed drives the fault generator (the only deterministic part).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Component == "" {
		c.Component = "svc"
	}
	if c.HealthPath == "" {
		c.HealthPath = "/healthz"
	}
	if c.GoodConfig == nil {
		c.GoodConfig = DefaultGoodConfig
	}
	if c.CorruptConfig == nil {
		c.CorruptConfig = DefaultCorruptConfig
	}
	if c.TickPeriod <= 0 {
		c.TickPeriod = 50 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 5 * time.Second
	}
	return c
}

// Spec returns the process target's static catalog.
func Spec() targets.Spec {
	return targets.Spec{
		Name:        Name,
		Description: "supervised OS process: real exec/signals/config faults, healed by real restarts",
		FaultKinds: []catalog.FaultKind{
			catalog.FaultHardware,
			catalog.FaultDeadlock,
			catalog.FaultOperatorConfig,
		},
		CandidateFixes: map[catalog.FaultKind][]catalog.FixID{
			catalog.FaultHardware:       {catalog.FixFailoverNode, catalog.FixRebootAppTier, catalog.FixFullRestart},
			catalog.FaultDeadlock:       {catalog.FixMicrorebootEJB, catalog.FixRebootAppTier, catalog.FixFullRestart},
			catalog.FaultOperatorConfig: {catalog.FixRestoreConfig, catalog.FixRebootAppTier, catalog.FixNotifyAdmin},
		},
		Tiers: []catalog.Tier{catalog.TierApp},
		SLO:   detect.SLO{MaxAvgLatencyMS: 200, MaxErrorRate: 0.25, MaxViolationShare: 0},
		Mixes: []string{"probe"},
	}
}

// metric slot indices into Proc.vals; names in the same order.
const (
	mUp = iota
	mProbeMS
	mRefused
	mTimeout
	m5xx
	mAlive
	mPaused
	mConfigDrift
	mRestarts
	numBuiltinMetrics
)

// Proc is the supervisor target instance. It is not safe for
// concurrent use (each harness owns its target) and, uniquely among
// the shipped targets, not deterministic: it manages a live process.
type Proc struct {
	targets.FaultSet[*fault]
	cfg   Config
	spec  targets.Spec
	child *managed
	live  *prober // health endpoint
	stats *prober // metrics endpoint (nil when unused)

	ownsDir   string // temp dir to remove on Close ("" when caller-owned)
	configTmp bool

	clk *clock.Wall

	now        int64
	names      []string
	vals       []float64
	lastFailed bool
	calls      [][]float64
}

// New spawns and supervises the configured child, returning once it
// answers its first healthy probe.
func New(cfg Config) (*Proc, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Command) == 0 {
		return nil, fmt.Errorf("process: Config.Command is required")
	}

	p := &Proc{cfg: cfg, spec: Spec(), clk: clock.NewWall(cfg.TickPeriod)}
	p.FaultSet = targets.NewFaultSet(Name, p.inject, p.clear, p.faultCleared)

	if cfg.Addr == "" {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p.cfg.Addr = addr
	}
	if cfg.ConfigPath == "" {
		dir, err := os.MkdirTemp("", "selfheal-process-")
		if err != nil {
			return nil, fmt.Errorf("process: temp config dir: %w", err)
		}
		p.ownsDir = dir
		p.cfg.ConfigPath = filepath.Join(dir, "config.json")
		p.configTmp = true
	}
	if _, err := os.Stat(p.cfg.ConfigPath); err != nil || p.configTmp {
		if err := os.WriteFile(p.cfg.ConfigPath, p.cfg.GoodConfig, 0o644); err != nil {
			p.cleanup()
			return nil, fmt.Errorf("process: write config: %w", err)
		}
	}

	argv := expandCommand(p.cfg.Command, p.cfg.Addr, p.cfg.ConfigPath)
	p.child = newManaged(argv, p.cfg.Env, p.cfg.Dir, p.cfg.Grace, p.cfg.Backoff)
	p.live = newProber("http://"+p.cfg.Addr+p.cfg.HealthPath, p.cfg.ProbeTimeout)
	if p.cfg.MetricsPath != "" && len(p.cfg.ScrapeKeys) > 0 {
		p.stats = newProber("http://"+p.cfg.Addr+p.cfg.MetricsPath, p.cfg.ProbeTimeout)
	}

	p.names = make([]string, 0, numBuiltinMetrics+len(p.cfg.ScrapeKeys))
	prefix := "proc." + p.cfg.Component + "."
	for _, n := range []string{"up", "probe_ms", "refused", "timeout", "http_5xx", "alive", "paused", "config_drift", "restarts"} {
		p.names = append(p.names, prefix+n)
	}
	for _, k := range p.cfg.ScrapeKeys {
		p.names = append(p.names, prefix+k)
	}
	p.vals = make([]float64, len(p.names))
	p.calls = [][]float64{{0}}

	if err := p.child.start(); err != nil {
		p.cleanup()
		return nil, err
	}
	if err := p.awaitHealthy(); err != nil {
		p.child.close()
		p.cleanup()
		return nil, err
	}
	return p, nil
}

func (p *Proc) awaitHealthy() error {
	deadline := time.Now().Add(p.cfg.StartTimeout)
	for {
		if p.live.probe().ok {
			return nil
		}
		if !p.child.alive() {
			return fmt.Errorf("process: child exited before first healthy probe; stderr tail:\n%s",
				p.child.errOut.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("process: no healthy probe from %s within %v; stderr tail:\n%s",
				p.live.url, p.cfg.StartTimeout, p.child.errOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("process: allocate port: %w", err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr, nil
}

// expandCommand substitutes {addr}/{config} tokens, appending flags for
// tokens that appear nowhere.
func expandCommand(command []string, addr, configPath string) []string {
	argv := make([]string, len(command))
	sawAddr, sawConfig := false, false
	for i, a := range command {
		if strings.Contains(a, "{addr}") {
			sawAddr = true
			a = strings.ReplaceAll(a, "{addr}", addr)
		}
		if strings.Contains(a, "{config}") {
			sawConfig = true
			a = strings.ReplaceAll(a, "{config}", configPath)
		}
		argv[i] = a
	}
	if !sawAddr {
		argv = append(argv, "-addr", addr)
	}
	if !sawConfig {
		argv = append(argv, "-config", configPath)
	}
	return argv
}

func (p *Proc) cleanup() {
	if p.ownsDir != "" {
		_ = os.RemoveAll(p.ownsDir)
	}
}

// Addr returns the child's listen address.
func (p *Proc) Addr() string { return p.cfg.Addr }

// Pid returns the live child's pid (0 when dead).
func (p *Proc) Pid() int { return p.child.pid() }

// Spec returns the target's static catalog.
func (p *Proc) Spec() targets.Spec { return p.spec }

// Now returns the current tick.
func (p *Proc) Now() int64 { return p.now }

// Clock returns the wall clock that paces this target's ticks
// (targets.Clocked).
func (p *Proc) Clock() clock.Clock { return p.clk }

// HarnessTuning shrinks the monitoring cadence to wall-clock scale
// (targets.Tuner): at the default 50ms tick the 24-tick warmup is
// ~1.2s, detection fires after 3 bad probes in a 6-probe window, and
// an escalated episode's 40-tick admin delay is ~2s.
func (p *Proc) HarnessTuning() targets.HarnessTuning {
	return targets.HarnessTuning{
		WarmupTicks:     24,
		WindowTicks:     6,
		DetectK:         3,
		HistoryTicks:    2048,
		CheckTicks:      30,
		AdminDelayTicks: 40,
		EpisodeBudget:   900,
	}
}

// Tick advances one supervision round: pace is the harness's job (via
// the wall clock); Tick itself probes the child once and reports what
// it saw as the SLO sample.
func (p *Proc) Tick() detect.Sample {
	p.now++
	for i := range p.vals {
		p.vals[i] = 0
	}

	alive := p.child.alive()
	if alive {
		p.vals[mAlive] = 1
	}
	if alive && p.child.paused() {
		p.vals[mPaused] = 1
	}
	p.vals[mRestarts] = float64(p.child.restartCount())
	if !p.configGood() {
		p.vals[mConfigDrift] = 1
	}

	var s detect.Sample
	s.Arrivals = 1
	if !alive {
		p.vals[mRefused] = 1
		s.Errors, s.SLOViolations, s.Down = 1, 1, true
		p.lastFailed = true
	} else {
		r := p.live.probe()
		p.vals[mProbeMS] = r.latencyMS
		s.AvgLatencyMS = r.latencyMS
		switch {
		case r.ok:
			p.vals[mUp] = 1
			p.lastFailed = false
			if r.latencyMS > p.spec.SLO.MaxAvgLatencyMS {
				s.SLOViolations = 1
			}
		default:
			s.Errors, s.SLOViolations = 1, 1
			p.lastFailed = true
			if r.refused {
				p.vals[mRefused] = 1
				s.Down = true
			}
			if r.timedOut {
				p.vals[mTimeout] = 1
			}
			if r.status5xx {
				p.vals[m5xx] = 1
			}
		}
		if p.stats != nil && p.vals[mUp] == 1 {
			p.scrapeInto()
		}
	}
	p.calls[0][0] = 1 // the supervisor's one probe call this tick
	return s
}

func (p *Proc) scrapeInto() {
	want := make(map[string]float64, len(p.cfg.ScrapeKeys))
	for _, k := range p.cfg.ScrapeKeys {
		want[k] = 0
	}
	p.stats.scrape(want)
	for i, k := range p.cfg.ScrapeKeys {
		p.vals[numBuiltinMetrics+i] = want[k]
	}
}

func (p *Proc) configGood() bool {
	raw, err := os.ReadFile(p.cfg.ConfigPath)
	return err == nil && bytes.Equal(raw, p.cfg.GoodConfig)
}

// MetricNames implements metrics.Source.
func (p *Proc) MetricNames() []string { return p.names }

// ReadMetrics implements metrics.Source.
func (p *Proc) ReadMetrics(dst []float64) { copy(dst, p.vals) }

// Sources returns the supervisor's synthesized probe metrics (plus any
// scraped gauges) as the target's one metric source.
func (p *Proc) Sources() []metrics.Source { return []metrics.Source{p} }

// CallMatrix is the 1×1 supervisor→child probe matrix.
func (p *Proc) CallMatrix() [][]float64 { return p.calls }

// CallMatrixRows returns 1: the supervisor is the only caller.
func (p *Proc) CallMatrixRows() int { return 1 }

// CallCallees names the one callee: the supervised component.
func (p *Proc) CallCallees() []string { return []string{p.cfg.Component} }

// CallMatrixSupport marks the single live cell (targets.CallMatrixSupporter).
func (p *Proc) CallMatrixSupport() [][2]int { return [][2]int{{0, 0}} }

// SamplePaths reports the probe's one-hop path through the child.
func (p *Proc) SamplePaths() []trace.Path {
	return []trace.Path{{
		Class:  "probe",
		Hops:   []trace.Hop{{Tier: catalog.TierApp.String(), Component: p.cfg.Component, Failed: p.lastFailed}},
		Failed: p.lastFailed,
	}}
}

// inject performs the real injection behind f: SIGKILL for hardware
// death, SIGSTOP for a deadlock freeze, a corrupt config write for
// operator error.
func (p *Proc) inject(f *fault) error {
	switch f.kind {
	case catalog.FaultHardware:
		p.child.kill()
	case catalog.FaultDeadlock:
		if err := p.child.signal(syscall.SIGSTOP); err != nil {
			return fmt.Errorf("process: freeze child: %w", err)
		}
		// Stopping is asynchronous: wait (bounded) until the kernel shows
		// the child stopped, so the very next probe sees the freeze.
		for wait := 0; wait < 50 && !p.child.paused(); wait++ {
			time.Sleep(2 * time.Millisecond)
		}
	case catalog.FaultOperatorConfig:
		if err := os.WriteFile(p.cfg.ConfigPath, p.cfg.CorruptConfig, 0o644); err != nil {
			return fmt.Errorf("process: corrupt config: %w", err)
		}
	default:
		return fmt.Errorf("process: target %q has no fault kind %s", Name, f.kind)
	}
	return nil
}

// faultCleared checks the live state, not bookkeeping: a hardware death
// is over once a child is running again, a freeze once nothing is
// stopped, a config corruption once the bytes on disk are good.
func (p *Proc) faultCleared(f *fault) bool {
	switch f.kind {
	case catalog.FaultHardware:
		return p.child.alive()
	case catalog.FaultDeadlock:
		return !p.child.alive() || !p.child.paused()
	case catalog.FaultOperatorConfig:
		return p.configGood()
	}
	return true
}

// clear reverts f's effect without a fix: the scripted off-phase of a
// flapping fault, or the end of an episode whose fault is still live.
func (p *Proc) clear(f *fault) error {
	switch f.kind {
	case catalog.FaultHardware:
		if !p.child.alive() {
			return p.child.respawn()
		}
	case catalog.FaultDeadlock:
		if p.child.alive() && p.child.paused() {
			return p.child.signal(syscall.SIGCONT)
		}
	case catalog.FaultOperatorConfig:
		return os.WriteFile(p.cfg.ConfigPath, p.cfg.GoodConfig, 0o644)
	}
	return nil
}

// Apply performs a real recovery action and returns how many ticks the
// child needs before a meaningful success check.
func (p *Proc) Apply(a targets.Action) (int64, error) {
	if a.Target != "" && a.Target != p.cfg.Component {
		return 0, fmt.Errorf("process: unknown component %q (supervising %q)", a.Target, p.cfg.Component)
	}
	boot := p.ticksFor(400 * time.Millisecond)
	switch a.Fix {
	case catalog.FixMicrorebootEJB:
		// Thaw: the microreboot analogue for a frozen process.
		if err := p.child.signal(syscall.SIGCONT); err != nil {
			return 0, fmt.Errorf("process: thaw: %w", err)
		}
		return p.ticksFor(100 * time.Millisecond), nil
	case catalog.FixRebootAppTier:
		// Graceful restart under the backoff policy.
		if err := p.child.respawn(); err != nil {
			return 0, err
		}
		return boot, nil
	case catalog.FixFailoverNode:
		// Replace the node: no graceful goodbye for dead hardware.
		p.child.kill()
		if err := p.child.respawn(); err != nil {
			return 0, err
		}
		return boot, nil
	case catalog.FixRestoreConfig:
		if err := os.WriteFile(p.cfg.ConfigPath, p.cfg.GoodConfig, 0o644); err != nil {
			return 0, fmt.Errorf("process: restore config: %w", err)
		}
		return p.ticksFor(100 * time.Millisecond), nil
	case catalog.FixFullRestart:
		// Operator-grade reset: config back to known-good, backoff ladder
		// to rest, fresh child.
		if err := os.WriteFile(p.cfg.ConfigPath, p.cfg.GoodConfig, 0o644); err != nil {
			return 0, fmt.Errorf("process: restore config: %w", err)
		}
		p.child.stop()
		p.child.resetBackoff()
		if err := p.child.respawn(); err != nil {
			return 0, err
		}
		return boot, nil
	case catalog.FixNotifyAdmin:
		// Accepted no-op: the healer's escalation path applies this before
		// consulting the administrator (CorrectFix).
		return 0, nil
	}
	return 0, fmt.Errorf("process: target %q cannot apply fix %s", Name, a.Fix)
}

func (p *Proc) ticksFor(d time.Duration) int64 {
	n := int64(d / p.cfg.TickPeriod)
	if n < 1 {
		n = 1
	}
	return n
}

// NewFaults builds a deterministic generator over the given kinds (the
// whole catalog when empty).
func (p *Proc) NewFaults(seed int64, kinds ...catalog.FaultKind) (targets.FaultGen, error) {
	if len(kinds) == 0 {
		kinds = append(kinds, p.spec.FaultKinds...)
	}
	if err := p.spec.ValidateKinds(kinds); err != nil {
		return nil, err
	}
	ks := make([]catalog.FaultKind, len(kinds))
	copy(ks, kinds)
	return &gen{rng: sim.NewRNG(seed), kinds: ks, component: p.cfg.Component}, nil
}

// MakeFault builds a fault from a declarative spec (targets.FaultMaker).
// Real injections are binary, so magnitude and duration are ignored.
func (p *Proc) MakeFault(kind catalog.FaultKind, component string, magnitude float64, duration int64) (targets.Fault, error) {
	if component != "" && component != p.cfg.Component {
		return nil, fmt.Errorf("process: unknown component %q (supervising %q)", component, p.cfg.Component)
	}
	return newFault(kind, p.cfg.Component)
}

// Close stops the child (no zombies outlive the supervisor) and
// removes any temp state the target owns.
func (p *Proc) Close() error {
	p.child.close()
	p.cleanup()
	return nil
}
