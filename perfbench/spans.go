package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share an ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out once at the end. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	self  time.Duration // time spent inside the tracer itself
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(t0.Sub(t.epoch))})
	t.self += time.Since(t0)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = int64(t0.Sub(t.epoch))
	t.self += time.Since(t0)
	t.mu.Unlock()
}

// record adds an already-timed span, for intervals the benchmark learns
// after the fact (server-side timestamps read from job views).
func (t *tracer) record(name, req string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.self += time.Since(t0)
	t.mu.Unlock()
}

// durs returns the durations in ms of every span with this name.
func (t *tracer) durs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// total returns the summed duration in ms of every span with this name.
func (t *tracer) total(name string) float64 { return sum(t.durs(name)) }

// selfTime reports how long the tracer's own bookkeeping took.
func (t *tracer) selfTime() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.self
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
