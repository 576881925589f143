package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a public entry point of the engine. Spans of one
// request share req; parent is the id of the span that caused this one
// (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request returns a fresh request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// begin opens a span now and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span that ran from start to end and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans)
}

// byName returns the durations of every span called name.
func (t *tracer) byName(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the self time of each closed span in
// ms: its duration minus the time its children took. Children of one span
// run one after another, so their durations add up.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		out[s.Name] = append(out[s.Name], ms(d-min(d, kids[s.ID])))
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
