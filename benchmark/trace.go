package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Key groups the spans of one episode or one
// probe.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    int64  `json:"key"`
}

// layer totals every span of one name: how often the layer ran, how long
// it was busy, and how much of that its child spans cover. Read the fields
// only after the traced run has ended.
type layer struct {
	name    string
	count   int64
	total   time.Duration
	covered time.Duration
}

// self is the layer's own time: its spans minus what their children cover.
func (l *layer) self() time.Duration { return l.total - l.covered }

// meanNs is the mean span length in nanoseconds.
func (l *layer) meanNs() float64 { return ratio(float64(l.total), float64(l.count)) }

// maxStoredSpans bounds the spans kept for the span file; the per-layer
// totals keep counting past it, so the layer numbers cover the whole run
// while memory stays flat.
const maxStoredSpans = 200_000

// tracer collects spans in memory. Sibling spans of one parent must not
// overlap (each layer here is called sequentially within its caller), so a
// parent's covered time is the plain sum of its children.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	nextID atomic.Int64
	spans  []span
	layers map[string]*layer
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: make(map[string]*layer)}
}

// layer returns name's totals, creating them on first use. Decorators
// resolve their layers once, so the per-span path does no map lookup.
func (t *tracer) layer(name string) *layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[name]
	if l == nil {
		l = &layer{name: name}
		t.layers[name] = l
	}
	return l
}

// open is a started span: its id is known, so children can name it as
// their parent before it ends.
type open struct {
	id    int64
	l     *layer
	start time.Time
}

func (t *tracer) begin(l *layer, start time.Time) open {
	return open{id: t.nextID.Add(1), l: l, start: start}
}

// end closes o at time at, under parent (the zero open for a root).
func (t *tracer) end(o, parent open, at time.Time, key int64) {
	d := at.Sub(o.start)
	t.mu.Lock()
	o.l.count++
	o.l.total += d
	if parent.l != nil {
		parent.l.covered += d
	}
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{
			ID: o.id, Parent: parent.id, Name: o.l.name,
			Start: o.start.Sub(t.origin).Nanoseconds(), End: at.Sub(t.origin).Nanoseconds(), Key: key,
		})
	}
	t.mu.Unlock()
}

// writeFile writes the stored spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
