package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
)

// broker fans a job's progress lines out to any number of SSE
// subscribers. The experiments runner already serializes progress writes
// line-per-call behind its own mutex; the broker re-splits on newlines
// anyway so a future writer that chunks differently cannot tear lines.
// Lines are retained for the job's lifetime so a late subscriber replays
// the full history before streaming live.
type broker struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	subs    map[chan string]struct{}
	closed  bool
}

func newBroker() *broker {
	return &broker{subs: map[chan string]struct{}{}}
}

// Write implements io.Writer for use as a runner progress sink.
func (b *broker) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return len(p), nil
	}
	b.partial = append(b.partial, p...)
	for {
		i := bytes.IndexByte(b.partial, '\n')
		if i < 0 {
			break
		}
		line := string(b.partial[:i])
		b.partial = append(b.partial[:0], b.partial[i+1:]...)
		b.lines = append(b.lines, line)
		for ch := range b.subs {
			select {
			case ch <- line:
			default: // slow subscriber: drop rather than stall the runner
			}
		}
	}
	return len(p), nil
}

// subscribe returns the history so far and a channel carrying subsequent
// lines. The channel is closed when the job finishes. If the job already
// finished, the channel comes back closed and only the replay matters.
func (b *broker) subscribe() ([]string, chan string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := make([]string, len(b.lines))
	copy(replay, b.lines)
	ch := make(chan string, 64)
	if b.closed {
		close(ch)
		return replay, ch
	}
	b.subs[ch] = struct{}{}
	return replay, ch
}

// unsubscribe detaches a live subscriber (no-op after close).
func (b *broker) unsubscribe(ch chan string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[ch]; ok {
		delete(b.subs, ch)
		close(ch)
	}
}

// close flushes any unterminated partial line and ends every subscriber's
// stream. Idempotent.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if len(b.partial) > 0 {
		line := string(b.partial)
		b.partial = nil
		b.lines = append(b.lines, line)
		for ch := range b.subs {
			select {
			case ch <- line:
			default:
			}
		}
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
}

// history returns all lines emitted so far.
func (b *broker) history() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.lines))
	copy(out, b.lines)
	return out
}

// serveEvents streams the broker as server-sent events: full replay for
// late subscribers, then live lines, then a terminal "state" event whose
// data is state() read once the broker has closed.
func (b *broker) serveEvents(w http.ResponseWriter, r *http.Request, state func() string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live := b.subscribe()
	defer b.unsubscribe(live)
	for _, line := range replay {
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", line)
	}
	flusher.Flush()
	for {
		select {
		case line, ok := <-live:
			if !ok {
				fmt.Fprintf(w, "event: state\ndata: %s\n\n", state())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
