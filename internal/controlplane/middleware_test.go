package controlplane

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// ok is a trivial handler for stack tests.
var ok = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok"))
})

// do runs one request through h and returns the recorder.
func do(h http.Handler, method, target string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	req.RemoteAddr = "10.0.0.1:12345"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func bearer(tok string) map[string]string {
	return map[string]string{"Authorization": "Bearer " + tok}
}

// TestAuthMatrix pins the two-scope policy: open reads by default,
// admin verbs never open, admin token grants read, wrong tokens 401.
func TestAuthMatrix(t *testing.T) {
	cases := []struct {
		name   string
		cfg    AuthConfig
		target string
		hdr    map[string]string
		want   int
	}{
		{"no tokens, read open", AuthConfig{}, "/metrics", nil, 200},
		{"no tokens, admin disabled", AuthConfig{}, "/admin/sync", nil, 403},
		{"read token, missing", AuthConfig{ReadToken: "r"}, "/metrics", nil, 401},
		{"read token, right", AuthConfig{ReadToken: "r"}, "/metrics", bearer("r"), 200},
		{"read token, wrong", AuthConfig{ReadToken: "r"}, "/metrics", bearer("x"), 401},
		{"admin token grants read", AuthConfig{ReadToken: "r", AdminToken: "a"}, "/metrics", bearer("a"), 200},
		{"admin, missing", AuthConfig{AdminToken: "a"}, "/admin/sync", nil, 401},
		{"admin, right", AuthConfig{AdminToken: "a"}, "/admin/sync", bearer("a"), 200},
		{"admin, read token not enough", AuthConfig{ReadToken: "r", AdminToken: "a"}, "/admin/sync", bearer("r"), 401},
		{"admin configured, read still open", AuthConfig{AdminToken: "a"}, "/healthz", nil, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(Auth(c.cfg)(ok), http.MethodGet, c.target, c.hdr)
			if rec.Code != c.want {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, c.want, rec.Body.String())
			}
			if rec.Code == 401 && rec.Header().Get("WWW-Authenticate") == "" {
				t.Fatal("401 without WWW-Authenticate challenge")
			}
		})
	}
}

// TestAuthQueryFallback: ?access_token= authenticates where headers
// cannot be set (EventSource on /events).
func TestAuthQueryFallback(t *testing.T) {
	h := Auth(AuthConfig{ReadToken: "secret"})(ok)
	if rec := do(h, http.MethodGet, "/events?access_token=secret", nil); rec.Code != 200 {
		t.Fatalf("query token refused: %d", rec.Code)
	}
	if rec := do(h, http.MethodGet, "/events?access_token=wrong", nil); rec.Code != 401 {
		t.Fatalf("wrong query token passed: %d", rec.Code)
	}
}

// TestRateLimit: the bucket admits the burst (2 at 1 RPS), then 429s with Retry-After,
// and refills with simulated time.
func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	l := &limiter{cfg: RateLimitConfig{RPS: 1}, by: make(map[string]*rlBucket), now: func() time.Time { return now }}
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !l.allow(remoteKey(r)) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	h := mw(ok)
	for i := 0; i < 2; i++ {
		if rec := do(h, http.MethodGet, "/metrics", nil); rec.Code != 200 {
			t.Fatalf("burst request %d: %d", i, rec.Code)
		}
	}
	rec := do(h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	now = now.Add(time.Second) // refills one token at 1 RPS
	if rec := do(h, http.MethodGet, "/metrics", nil); rec.Code != 200 {
		t.Fatalf("after refill: %d", rec.Code)
	}

	// A different remote has its own bucket.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.RemoteAddr = "10.0.0.2:1"
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("fresh remote limited: %d", rec.Code)
	}
}

// TestRateLimitDefaultBurst: the bucket depth is 2×RPS, at least 1.
func TestRateLimitDefaultBurst(t *testing.T) {
	l := &limiter{cfg: RateLimitConfig{RPS: 5}}
	if got := l.burst(); got != 10 {
		t.Fatalf("burst() = %d, want 10", got)
	}
	l = &limiter{cfg: RateLimitConfig{RPS: 0.2}}
	if got := l.burst(); got != 1 {
		t.Fatalf("burst() = %d, want 1", got)
	}
}

// TestChain: order is outermost-first and nils are skipped.
func TestChain(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(tag("a"), nil, tag("b"))(ok)
	if rec := do(h, http.MethodGet, "/", nil); rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if strings.Join(order, ",") != "a,b" {
		t.Fatalf("order = %v, want a,b", order)
	}
}

// TestRecover: a panicking handler becomes a logged 500, not a dead
// connection.
func TestRecover(t *testing.T) {
	var buf bytes.Buffer
	l := log.New(&buf, "", 0)
	h := Recover(l)(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := do(h, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(buf.String(), "boom") {
		t.Fatalf("panic not logged: %q", buf.String())
	}
}

// TestRequestLog: one structured line with method, path and status.
func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	l := log.New(&buf, "", 0)
	h := RequestLog(l)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	do(h, http.MethodGet, "/kb/snapshot", nil)
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/kb/snapshot", "status=418", "remote=10.0.0.1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}
}
