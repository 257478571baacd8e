package main

import (
	"context"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of an already sorted slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// minBeyond is how many samples must lie beyond a percentile before the
// runner reports it: fewer and the value is one or two outliers, not a
// property of the system.
const minBeyond = 10

// tailFrom is where the end-to-end tail latency starts: the 90th percentile
// on the host-timed workloads, the mean of everything above it on the
// simulated ones. The 95th percentile of a few hundred samples taken on a
// shared two-processor machine moves by a quarter between identical runs
// (the 99th by a factor of three), and the mean of the slowest twentieth of
// simulated repairs is at the mercy of a handful of 5,000-tick episodes; at
// the 90th both hold within a tenth.
const tailFrom = 0.90

// resolvable returns the highest quantile not above want that still has
// minBeyond of n samples beyond it (0.5 at the least: a median is always
// reported).
func resolvable(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// tail returns the value at the highest resolvable quantile not above
// want, and that quantile.
func tail(xs []float64, want float64) (value, q float64) {
	q = resolvable(len(xs), want)
	return quantile(sortedCopy(xs), q), q
}

// tailMean is the mean of the values above the q-quantile: the typical
// slow case. Simulated times come in a few discrete lengths, so their
// percentiles sit on one of them and never move; the mean of the slowest
// share does.
func tailMean(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	from := int(math.Ceil(q * float64(len(s))))
	if from >= len(s) {
		from = len(s) - 1
	}
	if from < 0 {
		return 0
	}
	return mean(s[from:])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// openLoop fires fn on a fixed schedule — call i is due at start+i/rate —
// until ctx ends or until the due time passes end. fn runs on the caller's
// goroutine, so a slow call delays the ones after it; it is handed its due
// time so it can time itself from when it should have started, which
// charges that delay to the system instead of hiding it (coordinated
// omission). Lateness is how long after its due time each call began.
func openLoop(ctx context.Context, start, end time.Time, rate float64, fn func(i int, due time.Time)) (lateness []float64) {
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return lateness
		}
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return lateness
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return lateness
		}
		lateness = append(lateness, time.Since(due).Seconds())
		fn(i, due)
	}
}

// selfCPU is this process's accumulated user and system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssSampler reads the resident set of one or more processes every 50 ms
// while a window is open. The peak it reports is the 95th percentile of the
// summed samples: on a garbage-collected heap the absolute maximum is one
// unlucky instant between two collections and grows with how long one
// watches, while the level the process sits at or below 95% of the time
// repeats from run to run.
type rssSampler struct {
	paths   []string
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

// sampleRSS starts sampling the given pids (0 is this process).
func sampleRSS(pids ...int) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	for _, pid := range pids {
		path := "/proc/self/statm"
		if pid != 0 {
			path = "/proc/" + strconv.Itoa(pid) + "/statm"
		}
		r.paths = append(r.paths, path)
	}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			r.samples = append(r.samples, r.read())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// read sums the resident pages of every watched process, in MB.
func (r *rssSampler) read() float64 {
	total := 0.0
	for _, path := range r.paths {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(data)); len(f) > 1 {
			pages, _ := strconv.ParseFloat(f[1], 64)
			total += pages * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	return total
}

// peakMB stops the sampler and returns the 95th percentile of its samples.
func (r *rssSampler) peakMB() float64 {
	close(r.stop)
	<-r.done
	return quantile(sortedCopy(r.samples), 0.95)
}

// canarySink keeps the canary loop's result alive so the compiler cannot
// drop the loop.
var canarySink uint64

// canary times a fixed arithmetic loop that touches no memory. The same
// loop before and after a workload should take the same time; when it does
// not, something else was using the machine and the run's timings are not
// to be trusted.
func canary(iters int) time.Duration {
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
