package process

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// probeResult is one health-probe observation, classified the way the
// symptom layer needs it: a refused connection, a timeout, and a 5xx
// response are three different failure shapes (dead, frozen,
// misbehaving) that must land in different symptom dimensions.
type probeResult struct {
	ok        bool
	refused   bool
	timedOut  bool
	status5xx bool
	latencyMS float64
}

// prober issues HTTP GETs against one endpoint with a hard timeout.
type prober struct {
	url    string
	client *http.Client
}

func newProber(url string, timeout time.Duration) *prober {
	return &prober{
		url: url,
		client: &http.Client{
			Timeout: timeout,
			// One probe per tick against one process: keep-alives only
			// mask refused connections after a crash, so disable them.
			Transport: &http.Transport{DisableKeepAlives: true},
		},
	}
}

func (p *prober) probe() probeResult {
	start := time.Now()
	resp, err := p.client.Get(p.url)
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	r := probeResult{latencyMS: elapsed}
	if err != nil {
		if isTimeout(err) {
			r.timedOut = true
		} else {
			r.refused = true
		}
		return r
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
	switch {
	case resp.StatusCode >= 500:
		r.status5xx = true
	case resp.StatusCode >= 200 && resp.StatusCode < 400:
		r.ok = true
	default:
		r.status5xx = true // 4xx from a health endpoint is still "unwell"
	}
	return r
}

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, os.ErrDeadlineExceeded)
}
