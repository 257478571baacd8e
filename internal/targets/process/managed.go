package process

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Backoff is the respawn policy for a child that keeps dying: each
// respawn after a short-lived run waits longer than the last, so a
// crash-looping child cannot pin the supervisor in a spawn storm.
type Backoff struct {
	// Initial is the delay before the first respawn of a crash loop.
	Initial time.Duration
	// Factor multiplies the delay after each short-lived run (>= 1).
	Factor float64
	// Max caps the delay.
	Max time.Duration
	// ResetAfter resets the ladder once a child has stayed up this long —
	// a long healthy run forgives earlier crashes.
	ResetAfter time.Duration
}

// DefaultBackoff returns the stock restart policy: 100ms doubling to a
// 2s cap, forgiven after 5s of uptime.
func DefaultBackoff() Backoff {
	return Backoff{Initial: 100 * time.Millisecond, Factor: 2, Max: 2 * time.Second, ResetAfter: 5 * time.Second}
}

func (b Backoff) withDefaults() Backoff {
	d := DefaultBackoff()
	if b.Initial <= 0 {
		b.Initial = d.Initial
	}
	if b.Factor < 1 {
		b.Factor = d.Factor
	}
	if b.Max <= 0 {
		b.Max = d.Max
	}
	if b.ResetAfter <= 0 {
		b.ResetAfter = d.ResetAfter
	}
	return b
}

// tailBuffer keeps the last max bytes written to it — enough child
// output to diagnose a crash without unbounded growth.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func newTailBuffer(max int) *tailBuffer { return &tailBuffer{max: max} }

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// managed is one supervised OS process: spawn, output capture, signal
// delivery, reaping, and backoff-paced respawn. All exported-ish entry
// points are safe for concurrent use; the Wait goroutine spawned per
// child guarantees every exited child is reaped (no zombies survive the
// supervisor, even when the caller never asks about the exit).
type managed struct {
	argv   []string
	env    []string
	grace  time.Duration
	policy Backoff

	out    *tailBuffer
	errOut *tailBuffer

	mu       sync.Mutex
	cmd      *exec.Cmd
	done     chan struct{} // closed by the Wait goroutine of the current cmd
	started  time.Time
	restarts int           // respawns since construction
	delay    time.Duration // next backoff rung (0 = ladder at rest)
	stopped  bool          // SIGSTOP sent and no SIGCONT yet (fallback for no /proc)
}

func newManaged(argv, env []string, grace time.Duration, policy Backoff) *managed {
	return &managed{
		argv:   argv,
		env:    env,
		grace:  grace,
		policy: policy,
		out:    newTailBuffer(8 << 10),
		errOut: newTailBuffer(8 << 10),
	}
}

// start spawns a fresh child. The previous child, if any, must already
// be gone; start does not stop it.
func (m *managed) start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aliveLocked() {
		return fmt.Errorf("process: child already running (pid %d)", m.cmd.Process.Pid)
	}
	cmd := exec.Command(m.argv[0], m.argv[1:]...)
	cmd.Env = append(os.Environ(), m.env...)
	cmd.Stdout = m.out
	cmd.Stderr = m.errOut
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("process: spawn %s: %w", strings.Join(m.argv, " "), err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // reap; exit status is read off ProcessState by the owner
		close(done)
	}()
	m.cmd = cmd
	m.done = done
	m.started = time.Now()
	m.stopped = false
	return nil
}

// alive reports whether the current child exists and has not exited.
func (m *managed) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aliveLocked()
}

func (m *managed) aliveLocked() bool {
	if m.cmd == nil || m.done == nil {
		return false
	}
	select {
	case <-m.done:
		return false
	default:
		return true
	}
}

// pid returns the current child's pid, or 0 when no child is live.
func (m *managed) pid() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.aliveLocked() {
		return 0
	}
	return m.cmd.Process.Pid
}

// paused reports whether the child is SIGSTOPped, from /proc when
// available and the supervisor's own signal bookkeeping otherwise.
func (m *managed) paused() bool {
	pid := m.pid()
	if pid == 0 {
		return false
	}
	if state, ok := procState(pid); ok {
		return state == 'T' || state == 't'
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// procState reads the single-letter scheduler state from
// /proc/<pid>/stat. The comm field may itself contain spaces and
// parentheses, so the state is parsed after the last ')'.
func procState(pid int) (byte, bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 >= len(s) {
		return 0, false
	}
	return s[i+2], true
}

// signal delivers sig to the current child; no-op when none is live.
func (m *managed) signal(sig syscall.Signal) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.aliveLocked() {
		return fmt.Errorf("process: no live child to signal")
	}
	if err := m.cmd.Process.Signal(sig); err != nil {
		return err
	}
	switch sig {
	case syscall.SIGSTOP:
		m.stopped = true
	case syscall.SIGCONT:
		m.stopped = false
	}
	return nil
}

// kill SIGKILLs the current child and waits for the reaper; no-op when
// none is live. A stopped child still dies: SIGKILL is not maskable and
// acts on stopped processes.
func (m *managed) kill() {
	m.mu.Lock()
	if !m.aliveLocked() {
		m.mu.Unlock()
		return
	}
	proc, done := m.cmd.Process, m.done
	m.mu.Unlock()
	_ = proc.Kill()
	<-done
}

// stop terminates the current child gracefully: SIGTERM, a grace
// period, then SIGKILL. It returns once the child is reaped.
func (m *managed) stop() {
	m.mu.Lock()
	if !m.aliveLocked() {
		m.mu.Unlock()
		return
	}
	proc, done, frozen := m.cmd.Process, m.done, m.stopped
	m.mu.Unlock()
	if frozen {
		// A stopped process cannot run its SIGTERM handler; thaw first so
		// graceful shutdown has a chance.
		_ = proc.Signal(syscall.SIGCONT)
	}
	_ = proc.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(m.grace):
		_ = proc.Kill()
		<-done
	}
}

// respawn replaces the child: graceful stop if one is live, then a
// backoff-paced start. A child that ran past ResetAfter resets the
// ladder; respawning a short-lived (or already-dead) child climbs it.
func (m *managed) respawn() error {
	m.mu.Lock()
	longRun := m.aliveLocked() && time.Since(m.started) >= m.policy.ResetAfter
	m.mu.Unlock()
	m.stop()

	m.mu.Lock()
	if longRun {
		m.delay = 0
	}
	wait := m.delay
	if m.delay == 0 {
		m.delay = m.policy.Initial
	} else {
		m.delay = time.Duration(float64(m.delay) * m.policy.Factor)
		if m.delay > m.policy.Max {
			m.delay = m.policy.Max
		}
	}
	m.restarts++
	m.mu.Unlock()

	if wait > 0 {
		time.Sleep(wait)
	}
	return m.start()
}

// resetBackoff returns the respawn ladder to rest — a full restart is
// an operator-grade reset, not another rung of the crash loop.
func (m *managed) resetBackoff() {
	m.mu.Lock()
	m.delay = 0
	m.mu.Unlock()
}

// restartCount returns respawns since construction.
func (m *managed) restartCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restarts
}

// close stops the child for good.
func (m *managed) close() { m.stop() }
