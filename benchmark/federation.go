package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/detect"
	"selfheal/internal/synopsis"
)

// The federation-2node workload: two real selfheald processes on loopback.
// A heals a never-ending campaign and gossips what it learns to B; the
// runner pushes marked observations into A and times how long they take to
// become readable on B, while scraping B as a monitoring system would. The
// knowledge plane — httpapi, kbsync, the control-plane middleware, the
// delta codec, the shared knowledge base's publish hooks, the console sink,
// collector and broker — does the work the in-process workloads bypass.
const (
	fedProbeRate  = 40 // marked pushes per second, open loop
	fedScrapeRate = 20 // B /metrics and /healthz requests per second, open loop
	// fedWarmEpisodes is how many episodes A must have injected before the
	// window opens, so its knowledge base and gossip are in steady state.
	fedWarmEpisodes = 200
	fedProbeTimeout = 5 * time.Second
	fedAdminToken   = "benchmark-admin"
	// markerBase lifts a probe's marker coordinate far above any z-score
	// a real symptom vector holds.
	markerBase = 1e9
)

// daemon is one running selfheald.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	url     string
	outPath string
	out     *os.File
	started time.Time
	// healthy is how long after exec /healthz first answered.
	healthy time.Duration
	waited  chan struct{}
	waitErr error
}

// freeAddrs asks the kernel for n distinct unused loopback ports.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// Held open until every port is chosen, so no two are the same.
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

func startDaemon(e env, name, addr string, args ...string) (*daemon, error) {
	bin := filepath.Join(e.binDir, "selfheald")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("selfheald binary: %w (run through benchmark/run.sh, or pass --bin)", err)
	}
	outPath := filepath.Join(e.workDir, name+".out")
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-serve", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = out, out
	// The daemon must not outlive the runner, however the runner dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, url: "http://" + addr, outPath: outPath, out: out, started: time.Now(), waited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		out.Close()
		return nil, err
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.waited)
	}()
	return d, nil
}

// stop asks the daemon to shut down and waits for it; a daemon that does
// not leave within ten seconds is killed. It returns the exit error (nil
// for a clean exit 0).
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waited
		d.out.Close()
		return fmt.Errorf("%s did not exit on SIGTERM", d.name)
	}
	d.out.Close()
	return d.waitErr
}

// usage is a daemon's accumulated CPU time and peak resident set.
type usage struct {
	cpu   time.Duration
	rssMB float64
}

// procUsage reads the daemon's CPU time and peak resident set from /proc.
func (d *daemon) procUsage() usage {
	var u usage
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if stat, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command: state is field 3, utime
		// and stime fields 14 and 15, in clock ticks of 1/100 s.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
			f := strings.Fields(string(stat[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				u.cpu = time.Duration(ut+st) * 10 * time.Millisecond
			}
		}
	}
	if status, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				u.rssMB = kb / 1024
			}
		}
	}
	return u
}

// cluster is the two daemons plus the HTTP client everything rides.
type cluster struct {
	a, b   *daemon
	client *http.Client
}

// startCluster starts B then A and returns once both answer /healthz and A
// has injected fedWarmEpisodes episodes.
func startCluster(ctx context.Context, e env) (*cluster, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	addrA, addrB := addrs[0], addrs[1]
	c := &cluster{client: &http.Client{
		Timeout:   fedProbeTimeout + 5*time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}}
	c.b, err = startDaemon(e, "b", addrB, "-episodes", "0", "-peers", "http://"+addrA, "-gossip-fanout", "1")
	if err != nil {
		return nil, err
	}
	c.a, err = startDaemon(e, "a", addrA,
		"-episodes", "1000000", "-replicas", "2", "-workers", "1", "-batch", "1", "-seed", fmt.Sprint(e.seed),
		"-peers", "http://"+addrB, "-gossip-fanout", "1", "-admin-token", fedAdminToken)
	if err != nil {
		c.stop()
		return nil, err
	}
	for _, d := range []*daemon{c.a, c.b} {
		if err := c.await(ctx, d, func() bool {
			_, err := c.get(ctx, d.url+"/healthz")
			return err == nil
		}); err != nil {
			c.stop()
			return nil, err
		}
		d.healthy = time.Since(d.started)
	}
	if err := c.await(ctx, c.a, func() bool {
		m, err := c.metrics(ctx, c.a)
		return err == nil && m["selfheal_episodes_injected_total"] >= float64(e.scaled(fedWarmEpisodes, 10))
	}); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// await polls cond until it holds, the daemon dies, or 20 s pass.
func (c *cluster) await(ctx context.Context, d *daemon, cond func() bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		select {
		case <-d.waited:
			return fmt.Errorf("%s exited during start-up: %v (see %s)", d.name, d.waitErr, d.outPath)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 20 s (see %s)", d.name, d.outPath)
		}
	}
	return nil
}

// stop shuts both daemons down and reports unclean exits.
func (c *cluster) stop() []error {
	var errs []error
	for _, d := range []*daemon{c.a, c.b} {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.name, err))
		}
	}
	c.client.CloseIdleConnections()
	return errs
}

// get fetches url and returns the body of a 200 answer.
func (c *cluster) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// metrics scrapes a daemon's /metrics into name → value (labelled series
// keep their label text in the name).
func (c *cluster) metrics(ctx context.Context, d *daemon) (map[string]float64, error) {
	body, err := c.get(ctx, d.url+"/metrics")
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m, nil
}

// push POSTs one delta to A's /kb/push as a two-hop rumor: A applies it and
// relays it to B.
func (c *cluster) push(ctx context.Context, body []byte, rumor string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.a.url+"/kb/push", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-KB-Rumor", rumor)
	req.Header.Set("X-KB-TTL", "2")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /kb/push: %s", resp.Status)
	}
	return nil
}

// probeBody is the delta a probe pushes: one successful observation whose
// only coordinate is the probe's marker.
func probeBody(i int) []byte {
	d := synopsis.Delta{Points: []synopsis.Point{{
		X:       []float64{markerBase + float64(i)},
		Action:  synopsis.Action{Fix: catalog.FixFullRestart},
		Success: true,
	}}}
	var buf bytes.Buffer
	_ = d.Encode(&buf)
	return buf.Bytes()
}

// marker returns the probe index a point carries, if it is a probe's.
func marker(p synopsis.Point) (int, bool) {
	if len(p.X) == 0 || p.X[0] < markerBase {
		return 0, false
	}
	return int(p.X[0] - markerBase), true
}

// sightings records when each probe's marker first appeared on a node.
type sightings struct {
	mu   sync.Mutex
	seen map[int]time.Time
	// following is closed once the watcher has read the node's history
	// and is parked on its first long-poll.
	following chan struct{}
	once      sync.Once
}

func newSightings() *sightings {
	return &sightings{seen: map[int]time.Time{}, following: make(chan struct{})}
}

func (s *sightings) note(i int, at time.Time) {
	s.mu.Lock()
	if _, ok := s.seen[i]; !ok {
		s.seen[i] = at
	}
	s.mu.Unlock()
}

func (s *sightings) at(i int) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.seen[i]
	return t, ok
}

func (s *sightings) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// watch follows a node's knowledge base as a peer would — one full pull,
// then long-polls on /kb/delta — and notes every probe marker it reads,
// until ctx ends. Errors other than ctx's are sent to errs.
func (c *cluster) watch(ctx context.Context, d *daemon, s *sightings, errs chan<- error) {
	url := d.url + "/kb/delta?since=0"
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			errs <- err
			return
		}
		resp, err := c.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				errs <- fmt.Errorf("watch %s: %w", d.name, err)
			}
			return
		}
		switch resp.StatusCode {
		case http.StatusNotModified:
			resp.Body.Close()
			if !strings.Contains(url, "wait=") {
				// Nothing published yet, so no cursor to park on.
				time.Sleep(10 * time.Millisecond)
			}
		case http.StatusOK:
			delta, err := synopsis.DecodeDelta(resp.Body)
			resp.Body.Close()
			if err != nil {
				if ctx.Err() == nil {
					errs <- fmt.Errorf("watch %s: %w", d.name, err)
				}
				return
			}
			now := time.Now()
			for _, p := range delta.Points {
				if i, ok := marker(p); ok {
					s.note(i, now)
				}
			}
			url = fmt.Sprintf("%s/kb/delta?since=%d&epoch=%s&wait=%s", d.url, delta.Seq, delta.Epoch, fedProbeTimeout)
			s.once.Do(func() { close(s.following) })
		default:
			resp.Body.Close()
			errs <- fmt.Errorf("watch %s: %s", d.name, resp.Status)
			return
		}
	}
}

// fedWindow is what the measured window saw.
type fedWindow struct {
	wall      time.Duration
	rssMB     float64 // A + B resident set over the window
	probes    int
	due       []time.Time
	pushRTT   []float64 // seconds, POST /kb/push round trip
	pushStart []time.Time
	pushEnd   []time.Time
	seenA     *sightings // traced runs only
	seenB     *sightings
	probeLate []float64
	scrapeLat []float64 // seconds, due → body read
	metricsRT []float64 // seconds, /metrics request → body read
	healthzRT []float64
	httpFails int
	before    map[string]float64 // A's /metrics when the window opened
	after     map[string]float64
	afterB    map[string]float64
	useA0     usage
	useA1     usage
	useB0     usage
	useB1     usage
	errs      []error
}

// runFedWindow opens the window: a prober pushing marked deltas into A, a
// scraper reading B, and a watcher following B (and A when traced).
func (c *cluster) runFedWindow(ctx context.Context, e env, traced bool) (*fedWindow, error) {
	w := &fedWindow{seenB: newSightings()}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, 8) // one slot per goroutine below, with room to spare
	var watchers sync.WaitGroup
	watchers.Add(1)
	go func() { defer watchers.Done(); c.watch(wctx, c.b, w.seenB, errs) }()
	if traced {
		w.seenA = newSightings()
		watchers.Add(1)
		go func() { defer watchers.Done(); c.watch(wctx, c.a, w.seenA, errs) }()
	}
	for _, s := range []*sightings{w.seenB, w.seenA} {
		if s == nil {
			continue
		}
		select {
		case <-s.following:
		case err := <-errs:
			return nil, err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	var err error
	if w.before, err = c.metrics(ctx, c.a); err != nil {
		return nil, err
	}
	w.useA0, w.useB0 = c.a.procUsage(), c.b.procUsage()
	sampler := sampleRSS(c.a.cmd.Process.Pid, c.b.cmd.Process.Pid)
	t0 := time.Now()
	end := t0.Add(e.seconds)

	var mu sync.Mutex // guards w's slices between the two generators
	var gens sync.WaitGroup
	gens.Add(2)
	go func() { // prober
		defer gens.Done()
		late := openLoop(wctx, t0, end, fedProbeRate, func(i int, due time.Time) {
			start := time.Now()
			ok := c.push(wctx, probeBody(i), fmt.Sprintf("probe-%d-%d", e.seed, i)) == nil
			done := time.Now()
			mu.Lock()
			w.due = append(w.due, due)
			w.pushStart = append(w.pushStart, start)
			w.pushEnd = append(w.pushEnd, done)
			w.pushRTT = append(w.pushRTT, done.Sub(start).Seconds())
			if !ok {
				w.httpFails++
			}
			mu.Unlock()
		})
		mu.Lock()
		w.probeLate = late
		mu.Unlock()
	}()
	go func() { // scraper
		defer gens.Done()
		openLoop(wctx, t0, end, fedScrapeRate, func(i int, due time.Time) {
			path, rts := "/metrics", &w.metricsRT
			if i%2 == 1 {
				path, rts = "/healthz", &w.healthzRT
			}
			start := time.Now()
			_, err := c.get(wctx, c.b.url+path)
			done := time.Now()
			mu.Lock()
			w.scrapeLat = append(w.scrapeLat, done.Sub(due).Seconds())
			*rts = append(*rts, done.Sub(start).Seconds())
			if err != nil {
				w.httpFails++
			}
			mu.Unlock()
		})
	}()
	gens.Wait()
	w.wall = time.Since(t0)
	w.rssMB = sampler.peakMB()
	w.useA1, w.useB1 = c.a.procUsage(), c.b.procUsage()
	if w.after, err = c.metrics(ctx, c.a); err != nil {
		return nil, err
	}
	if w.afterB, err = c.metrics(ctx, c.b); err != nil {
		return nil, err
	}
	w.probes = len(w.due)

	// Give the last probes their full timeout to show up.
	for wait := time.Now().Add(fedProbeTimeout); time.Now().Before(wait) && ctx.Err() == nil; {
		if w.seenB.count() >= w.probes && (w.seenA == nil || w.seenA.count() >= w.probes) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	watchers.Wait()
	close(errs)
	for err := range errs {
		w.errs = append(w.errs, err)
	}
	return w, ctx.Err()
}

// grew is how far one of A's counters moved over the window.
func (w *fedWindow) grew(name string) float64 { return w.after[name] - w.before[name] }

// recoveredRatio is A's recovered / detected episodes over the window.
func (w *fedWindow) recoveredRatio() float64 {
	return ratio(w.grew("selfheal_episodes_recovered_total"), w.grew("selfheal_episodes_detected_total"))
}

// propagation returns due→visible-on-B for every probe seen in time, and
// how many were not.
func (w *fedWindow) propagation() (lat []float64, lost int) {
	for i, due := range w.due {
		at, ok := w.seenB.at(i)
		if !ok || at.Sub(due) > fedProbeTimeout {
			lost++
			continue
		}
		lat = append(lat, at.Sub(due).Seconds())
	}
	return lat, lost
}

// snapshotKeys fetches a node's /kb/snapshot and returns the canonical
// identity of every point in it, in space's coordinates.
func (c *cluster) snapshotKeys(ctx context.Context, d *daemon, space *detect.SymptomSpace) (map[string]int, error) {
	body, err := c.get(ctx, d.url+"/kb/snapshot")
	if err != nil {
		return nil, err
	}
	snap, err := synopsis.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return snap.Keys(space), nil
}

func sameKeys(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// fedOracle freezes learning on A, requires both knowledge bases to hold
// the same canonical points within five seconds, then shuts both daemons
// down and requires clean exits and panic-free output.
func (c *cluster) fedOracle(ctx context.Context, rep *report) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.a.url+"/admin/learning", strings.NewReader(`{"freeze":true}`))
	if err == nil {
		req.Header.Set("Authorization", "Bearer "+fedAdminToken)
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = c.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = errors.New(resp.Status)
			}
		}
	}
	if err != nil {
		rep.fail("POST /admin/learning on A: %v", err)
	}

	space := detect.NewSymptomSpace()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ka, errA := c.snapshotKeys(ctx, c.a, space)
		kb, errB := c.snapshotKeys(ctx, c.b, space)
		if errA != nil || errB != nil {
			rep.fail("/kb/snapshot: A %v, B %v", errA, errB)
			break
		}
		if sameKeys(ka, kb) {
			rep.notes["converged"] = fmt.Sprintf("%d canonical points on both nodes", len(ka))
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			rep.fail("knowledge bases did not converge in 5 s: A holds %d canonical points, B %d", len(ka), len(kb))
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	for _, err := range c.stop() {
		rep.fail("shutdown: %v", err)
	}
	for _, d := range []*daemon{c.a, c.b} {
		if out, err := os.ReadFile(d.outPath); err != nil {
			rep.fail("%s output: %v", d.name, err)
		} else if bytes.Contains(out, []byte("panic")) {
			rep.fail("%s output mentions a panic (see %s)", d.name, d.outPath)
		}
	}
}

func runFederation(ctx context.Context, e env) (*report, error) {
	c, setup, err := repeatSetup(e,
		func() (*cluster, error) { return startCluster(ctx, e) },
		func(c *cluster) { c.stop() })
	if err != nil {
		return nil, err
	}
	defer c.stop()
	w, err := c.runFedWindow(ctx, e, false)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	c.fedOracle(ctx, rep)
	fedEndToEnd(rep, c, w, setup)
	return rep, nil
}

func fedEndToEnd(rep *report, c *cluster, w *fedWindow, setup float64) {
	for _, err := range w.errs {
		rep.fail("%v", err)
	}
	lat, lost := w.propagation()
	episodes := w.grew("selfheal_episodes_injected_total")
	cpu := (w.useA1.cpu - w.useA0.cpu) + (w.useB1.cpu - w.useB0.cpu)
	tailLat, tailQ := tail(lat, tailFrom)
	p95, _ := tail(lat, 0.95)

	rep.attempted = w.probes + len(w.scrapeLat)
	rep.failed = lost + w.httpFails
	// Throughput is the healing load A sustains while it serves the plane;
	// latency and success are the plane's own: how long pushed knowledge
	// takes to reach B, and how much of it does. A's recovered / detected
	// cannot stand in as the success ratio: with two replicas on a shared
	// knowledge base it read 0.72 to 0.97 over six seeds.
	rep.endToEnd(setup, episodes, w.wall, cpu, median(lat), tailLat, ratio(float64(w.probes-lost), float64(w.probes)), w.rssMB)

	rep.own("propagation_p95_ms", p95*1e3)
	rep.own("scrape_p50_ms", median(w.scrapeLat)*1e3)
	late, _ := tail(w.probeLate, 0.95)
	rep.own("probe.late_p95_ms", late*1e3)
	sorted := sortedCopy(lat)
	rep.notes["probes"] = fmt.Sprintf("%d probes, %d lost, tail is p%.4g (p75 %.2f, p90 %.2f, p95 %.2f, p99 %.2f ms); %d scrapes; %d HTTP failures; A recovered %.4f of detected",
		w.probes, lost, tailQ*100, quantile(sorted, 0.75)*1e3, quantile(sorted, 0.90)*1e3, quantile(sorted, 0.95)*1e3, quantile(sorted, 0.99)*1e3,
		len(w.scrapeLat), w.httpFails, w.recoveredRatio())
}
