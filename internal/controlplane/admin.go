package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"selfheal/internal/core"
)

// The admin verbs: POST endpoints that act on a running node instead of
// observing it. Every verb returns structured JSON, counts itself into
// the selfheal_admin_requests_total{verb,code} metric, and emits an
// EventAdmin audit record onto the event stream, so the operators
// watching /events see each other's actions interleaved with the
// healing they affect.

// AdminHooks are the node capabilities the verbs act through. Nil hooks
// mark capabilities the node does not have; their verbs answer 409 with
// an explanation instead of pretending to act.
type AdminHooks struct {
	// SyncNow pulls every configured peer once (Ops.SyncNow); nil when
	// the node has no peers.
	SyncNow func(ctx context.Context) (int, error)
	// Compact forces a knowledge-base compaction (Shared.Compact). Nil,
	// or an error — Shared.Compact's refusal without a compaction cap —
	// answers 409.
	Compact func() (int, error)
	// FreezeLearning freezes or thaws the fleet's learn path, reporting
	// whether the call changed the state. Required.
	FreezeLearning func(freeze bool) bool
	// LearningFrozen reports the gate's current state. Required.
	LearningFrozen func() bool
	// Drain puts the node into drain: stop accepting pushed deltas and
	// starting episodes, finish what is in flight. Idempotent. Required.
	Drain func()
	// DrainStatus reports whether a drain was requested and how many
	// episodes are still in flight. Required.
	DrainStatus func() (draining bool, active int64)
}

// Admin serves the verb endpoints and keeps their request counters.
type Admin struct {
	hooks  AdminHooks
	broker *Broker // audit stream; may be nil

	mu       sync.Mutex
	requests map[string]map[int]uint64 // verb -> status code -> count
}

// NewAdmin builds the verb handler set. broker may be nil (no audit
// stream — counters still work).
func NewAdmin(hooks AdminHooks, broker *Broker) *Admin {
	return &Admin{hooks: hooks, broker: broker, requests: make(map[string]map[int]uint64)}
}

// Register mounts the verbs on mux.
func (a *Admin) Register(mux *http.ServeMux) {
	mux.HandleFunc("/admin/sync", a.verb("sync", a.handleSync))
	mux.HandleFunc("/admin/compact", a.verb("compact", a.handleCompact))
	mux.HandleFunc("/admin/learning", a.verb("learning", a.handleLearning))
	mux.HandleFunc("/admin/drain", a.verb("drain", a.handleDrain))
}

// AdminRequestCount is one (verb, code) row of the request counters.
type AdminRequestCount struct {
	Verb  string
	Code  int
	Count uint64
}

// Requests snapshots the per-verb, per-status request counters, sorted
// for stable /metrics output.
func (a *Admin) Requests() []AdminRequestCount {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []AdminRequestCount
	for verb, byCode := range a.requests {
		for code, n := range byCode {
			out = append(out, AdminRequestCount{Verb: verb, Code: code, Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Verb != out[j].Verb {
			return out[i].Verb < out[j].Verb
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// CountRequest records one verb request's final status code. CountAdmin
// calls it from a middleware outside the auth and rate-limit stages, so
// the metric counts denied attempts (401/403/429) too — those are the
// rows an operator alerts on.
func (a *Admin) CountRequest(verb string, code int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	byCode := a.requests[verb]
	if byCode == nil {
		byCode = make(map[int]uint64)
		a.requests[verb] = byCode
	}
	byCode[code]++
}

// audit emits the verb's audit record onto the event stream.
func (a *Admin) audit(verb, outcome string) {
	if a.broker == nil {
		return
	}
	a.broker.Emit(core.Event{
		Kind:    core.EventAdmin,
		Replica: -1,
		Label:   verb + ": " + outcome,
	})
}

// verbResult is what one verb handler produced: the status code, the
// JSON-encodable body, and the one-line outcome for the audit event
// (empty: no audit — the verb did not act).
type verbResult struct {
	code  int
	body  any
	audit string
}

// verb wraps one handler with the shared envelope: POST-only, JSON
// response, audit emission. Request counting lives in the CountAdmin
// middleware outside auth, where middleware rejections are visible too.
func (a *Admin) verb(name string, h func(*http.Request) verbResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var res verbResult
		if r.Method != http.MethodPost {
			res = verbResult{code: http.StatusMethodNotAllowed, body: errBody("POST only")}
		} else {
			res = h(r)
		}
		if res.audit != "" {
			a.audit(name, res.audit)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.code)
		json.NewEncoder(w).Encode(res.body)
	}
}

// errBody is the uniform error envelope.
func errBody(msg string) any { return map[string]string{"error": msg} }

// syncTimeout bounds one admin-triggered sync round; a hub with a dead
// peer must not park the operator's curl on TCP timeouts.
const syncTimeout = 30 * time.Second

// handleSync — POST /admin/sync: pull every peer once, now.
func (a *Admin) handleSync(r *http.Request) verbResult {
	if a.hooks.SyncNow == nil {
		return verbResult{code: http.StatusConflict, body: errBody("no peers configured")}
	}
	ctx, cancel := context.WithTimeout(r.Context(), syncTimeout)
	defer cancel()
	added, err := a.hooks.SyncNow(ctx)
	if err != nil {
		return verbResult{
			code:  http.StatusBadGateway,
			body:  map[string]any{"added": added, "error": err.Error()},
			audit: fmt.Sprintf("pulled %d points, error: %v", added, err),
		}
	}
	return verbResult{
		code:  http.StatusOK,
		body:  map[string]any{"added": added},
		audit: fmt.Sprintf("pulled %d new points", added),
	}
}

// handleCompact — POST /admin/compact: force a KB compaction.
func (a *Admin) handleCompact(r *http.Request) verbResult {
	if a.hooks.Compact == nil {
		return verbResult{code: http.StatusConflict, body: errBody("compaction not enabled (start with a compaction cap)")}
	}
	dropped, err := a.hooks.Compact()
	if err != nil {
		return verbResult{code: http.StatusConflict, body: errBody(err.Error())}
	}
	return verbResult{
		code:  http.StatusOK,
		body:  map[string]any{"dropped": dropped},
		audit: fmt.Sprintf("dropped %d observations", dropped),
	}
}

// handleLearning — POST /admin/learning {"freeze": bool}: gate the
// fleet's learn path.
func (a *Admin) handleLearning(r *http.Request) verbResult {
	var req struct {
		Freeze *bool `json:"freeze"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Freeze == nil {
		return verbResult{code: http.StatusBadRequest, body: errBody(`body must be {"freeze": true|false}`)}
	}
	changed := a.hooks.FreezeLearning(*req.Freeze)
	state := "thawed"
	if *req.Freeze {
		state = "frozen"
	}
	outcome := "learning " + state
	if !changed {
		outcome = "learning already " + state
	}
	return verbResult{
		code:  http.StatusOK,
		body:  map[string]any{"frozen": a.hooks.LearningFrozen(), "changed": changed},
		audit: outcome,
	}
}

// handleDrain — POST /admin/drain: stop taking new work, finish what is
// in flight.
func (a *Admin) handleDrain(r *http.Request) verbResult {
	already, _ := a.hooks.DrainStatus()
	a.hooks.Drain()
	_, active := a.hooks.DrainStatus()
	outcome := fmt.Sprintf("draining, %d episodes in flight", active)
	if already {
		outcome = fmt.Sprintf("already draining, %d episodes in flight", active)
	}
	return verbResult{
		code:  http.StatusOK,
		body:  map[string]any{"draining": true, "active_episodes": active},
		audit: outcome,
	}
}
