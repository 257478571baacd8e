package controlplane

import (
	"crypto/subtle"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// The ops-plane middleware stack. Each middleware is an independent
// http.Handler wrapper; Chain composes the ones a deployment wants and
// leaves the rest out — auth without rate limiting, logging without
// auth, any subset. httpapi applies them around its whole mux, so every
// endpoint (including /kb and the admin verbs) sits behind one uniform
// stack.

// Middleware wraps an http.Handler.
type Middleware func(http.Handler) http.Handler

// Chain composes middlewares outermost-first: Chain(a, b)(h) serves a
// request through a, then b, then h. Nil entries are skipped, so callers
// can pass a fixed slot list with disabled stages left nil.
func Chain(mw ...Middleware) Middleware {
	return func(h http.Handler) http.Handler {
		for i := len(mw) - 1; i >= 0; i-- {
			if mw[i] != nil {
				h = mw[i](h)
			}
		}
		return h
	}
}

// AuthConfig is the ops plane's two-scope bearer-token policy.
//
// Read scope covers the observational endpoints (/healthz, /metrics,
// /kb/*, /events); admin scope covers every path under /admin/. The
// admin token always also grants read. Empty tokens disable their scope
// independently: an empty ReadToken leaves the observational plane open
// (a metrics scraper needs no secret), while an empty AdminToken
// disables the admin verbs outright — mutation never defaults open.
type AuthConfig struct {
	// ReadToken guards the observational endpoints; "" leaves them open.
	ReadToken string
	// AdminToken guards /admin/; "" disables the admin verbs (403).
	AdminToken string
}

// token extracts the caller's bearer token: the Authorization header
// normally, or an access_token query parameter as the fallback for
// EventSource clients, which cannot set headers on /events.
func token(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if len(h) > 7 && strings.EqualFold(h[:7], "Bearer ") {
		return strings.TrimSpace(h[7:])
	}
	return r.URL.Query().Get("access_token")
}

// tokenEq compares tokens in constant time; an empty want never matches.
func tokenEq(got, want string) bool {
	return want != "" && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// adminPath reports whether the request targets an admin verb.
func adminPath(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/admin/") }

// Auth enforces cfg. A request under /admin/ needs the admin token; any
// other request needs the read token (or the admin token) when one is
// configured. Missing or wrong credentials get 401 with a
// WWW-Authenticate challenge; admin verbs on a node with no admin token
// configured get 403 — the verb set is disabled, no credential helps.
func Auth(cfg AuthConfig) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got := token(r)
			if adminPath(r) {
				if cfg.AdminToken == "" {
					http.Error(w, "admin verbs disabled: no admin token configured", http.StatusForbidden)
					return
				}
				if !tokenEq(got, cfg.AdminToken) {
					w.Header().Set("WWW-Authenticate", `Bearer realm="selfheal-admin"`)
					http.Error(w, "admin token required", http.StatusUnauthorized)
					return
				}
				next.ServeHTTP(w, r)
				return
			}
			if cfg.ReadToken != "" && !tokenEq(got, cfg.ReadToken) && !tokenEq(got, cfg.AdminToken) {
				w.Header().Set("WWW-Authenticate", `Bearer realm="selfheal"`)
				http.Error(w, "token required", http.StatusUnauthorized)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// RateLimitConfig parameterizes the per-remote token bucket.
type RateLimitConfig struct {
	// RPS is the sustained request rate each remote host is allowed.
	RPS float64
}

// rlBucket is one remote's token bucket.
type rlBucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets caps the per-remote map; beyond it, buckets idle longest
// are evicted so a scanner cycling source ports cannot grow it forever.
const maxBuckets = 4096

// limiter holds the shared bucket state behind the middleware.
type limiter struct {
	cfg RateLimitConfig
	mu  sync.Mutex
	by  map[string]*rlBucket
	now func() time.Time // test seam
}

// burst is the bucket depth, 2×RPS and at least 1: how many requests
// a quiet remote may fire back to back.
func (l *limiter) burst() int {
	if b := int(2 * l.cfg.RPS); b > 1 {
		return b
	}
	return 1
}

// allow takes one token from remote's bucket, refilling it first.
func (l *limiter) allow(remote string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	burst := l.burst()
	b := l.by[remote]
	if b == nil {
		if len(l.by) >= maxBuckets {
			l.evictLocked(now)
		}
		b = &rlBucket{tokens: float64(burst), last: now}
		l.by[remote] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.cfg.RPS
	if b.tokens > float64(burst) {
		b.tokens = float64(burst)
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictLocked drops buckets idle longer than a minute; if none are, it
// drops the single stalest one. Callers hold l.mu.
func (l *limiter) evictLocked(now time.Time) {
	var stalest string
	var stalestAt time.Time
	for k, b := range l.by {
		if now.Sub(b.last) > time.Minute {
			delete(l.by, k)
			continue
		}
		if stalest == "" || b.last.Before(stalestAt) {
			stalest, stalestAt = k, b.last
		}
	}
	if len(l.by) >= maxBuckets && stalest != "" {
		delete(l.by, stalest)
	}
}

// remoteKey buckets requests by remote host, ignoring the port so one
// client's connection churn shares one bucket.
func remoteKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// RateLimit applies a token-bucket limit per remote host across the
// whole plane; over-limit requests get 429 with a Retry-After hint.
// Long-lived streams (/events) cost one token at accept time only.
func RateLimit(cfg RateLimitConfig) Middleware {
	l := &limiter{cfg: cfg, by: make(map[string]*rlBucket), now: time.Now}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !l.allow(remoteKey(r)) {
				w.Header().Set("Retry-After", fmt.Sprintf("%.0f", 1/cfg.RPS+0.5))
				http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// statusWriter captures the response status and size for RequestLog and
// CountAdmin while remaining transparent to streaming handlers (Flush
// passes through, which SSE needs).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// code returns the final status; a handler that wrote nothing sent 200.
func (sw *statusWriter) code() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// RequestLog logs one line per request in key=value form: time (from
// the logger), remote, method, path, status, bytes and duration. A nil
// logger uses the process default.
func RequestLog(l *log.Logger) Middleware {
	if l == nil {
		l = log.Default()
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			l.Printf("ops remote=%s method=%s path=%s status=%d bytes=%d dur=%s",
				remoteKey(r), r.Method, r.URL.Path, sw.code(), sw.bytes, time.Since(start).Round(time.Microsecond))
		})
	}
}

// CountAdmin records every /admin/* response's final status into a's
// request counters. Chained outside Auth and RateLimit, it counts their
// 401/403/429 rejections too, which never reach the verb handlers. A nil
// a yields a nil stage, which Chain skips.
func CountAdmin(a *Admin) Middleware {
	if a == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			verb, ok := strings.CutPrefix(r.URL.Path, "/admin/")
			if !ok {
				next.ServeHTTP(w, r)
				return
			}
			sw := &statusWriter{ResponseWriter: w}
			next.ServeHTTP(sw, r)
			a.CountRequest(verb, sw.code())
		})
	}
}

// Recover converts a handler panic into a 500 (when nothing was written
// yet) and a logged stack trace, so one bad request cannot take the ops
// listener's goroutine down mid-campaign. A nil logger uses the process
// default.
func Recover(l *log.Logger) Middleware {
	if l == nil {
		l = log.Default()
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					l.Printf("ops panic path=%s: %v\n%s", r.URL.Path, v, debug.Stack())
					// Best effort: if the handler already streamed a body
					// this write is ignored by net/http.
					http.Error(w, "internal error", http.StatusInternalServerError)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}
