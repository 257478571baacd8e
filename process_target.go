package selfheal

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"selfheal/internal/targets/process"
)

// TargetProcess is the supervisor target: a real OS process spawned and
// managed by the healing stack — exec with output capture, HTTP health
// probes synthesized into the usual metric series, restart policies
// with exponential backoff — whose faults are real injections (SIGKILL,
// SIGSTOP freeze, config-file corruption) and whose fixes are real
// actions (thaw, graceful restart, kill-and-respawn failover, config
// rollback). The target implements Clocked, so its harness ticks on
// wall time, and its spec's Cadence shrinks the monitoring cadence to
// wall-clock scale. Unlike the simulator targets it is not
// deterministic in the seed: real processes are not replayable.
const TargetProcess TargetKind = process.Name

// ProcessCommandEnv names the child command the process target
// supervises: a shell-split argv to which the target always appends
// "-addr <addr> -config <path>", a free 127.0.0.1 port and a config
// file it owns. When unset, the factory falls back to a crashyd binary
// found on PATH.
const ProcessCommandEnv = "SELFHEAL_PROCESS_CMD"

// NewProcessTarget builds a supervisor target instance directly from a
// full process.Config-shaped description, for callers (tests, examples,
// embedders) that need more than the env-configured registry factory:
// a component name, child environment, probe cadence, backoff policy.
// Pass the result to WithTargetInstance.
func NewProcessTarget(cfg ProcessConfig) (Target, error) { return process.New(cfg) }

// ProcessConfig parameterizes a supervised process: Component, Command
// (the child always gets "-addr <addr> -config <path>" appended), Env,
// TickPeriod, ProbeTimeout, Grace, Backoff and Seed; see the field docs
// in internal/targets/process.
type ProcessConfig = process.Config

func processCommand() ([]string, error) {
	if cmd := strings.TrimSpace(os.Getenv(ProcessCommandEnv)); cmd != "" {
		return strings.Fields(cmd), nil
	}
	if path, err := exec.LookPath("crashyd"); err == nil {
		return []string{path}, nil
	}
	return nil, fmt.Errorf("selfheal: the %q target needs a child command: set %s (e.g. %q) or put a crashyd binary on PATH (go build ./cmd/crashyd)",
		TargetProcess, ProcessCommandEnv, "crashyd -crash-every 30s")
}
