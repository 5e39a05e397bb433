package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// fakeClock drives lease expiry and worker visibility without real
// waiting.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// workersBody decodes GET /cluster/workers.
func workersBody(t *testing.T, url string) (ws []WorkerView, degraded bool) {
	t.Helper()
	body, _ := getBody(t, url+"/cluster/workers")
	var v struct {
		Workers  []WorkerView `json:"workers"`
		Degraded bool         `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decode /cluster/workers: %v (%s)", err, body)
	}
	return v.Workers, v.Degraded
}

// A worker is listed from its first poll and dropped after one lease
// of silence, and the sweep then forgets it.
func TestWorkerVisibleFromPollUntilLeaseOfSilence(t *testing.T) {
	clk := newFakeClock()
	cfg := fastCfg(clk)
	cfg.LeaseDuration = time.Second
	co := NewCoordinator(cfg)
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	if ws, degraded := workersBody(t, ts.URL); len(ws) != 0 || !degraded {
		t.Fatalf("before any poll: workers=%+v degraded=%v, want none and degraded", ws, degraded)
	}
	claimOnce(t, ts.URL, "w1", 0)
	if ws, degraded := workersBody(t, ts.URL); len(ws) != 1 || ws[0] != (WorkerView{ID: "w1"}) || degraded {
		t.Fatalf("after first poll: workers=%+v degraded=%v, want w1 seen 0 ms ago", ws, degraded)
	}

	clk.advance(time.Second) // exactly one lease: still in sight
	if ws, _ := workersBody(t, ts.URL); len(ws) != 1 || ws[0].LastSeenMs != 1000 {
		t.Fatalf("one lease after the poll: workers=%+v, want w1 seen 1000 ms ago", ws)
	}
	clk.advance(time.Millisecond)
	if ws, degraded := workersBody(t, ts.URL); len(ws) != 0 || !degraded {
		t.Fatalf("past one lease of silence: workers=%+v degraded=%v, want none and degraded", ws, degraded)
	}
	if st := co.Stats(); st.Workers != 0 {
		t.Fatalf("stats count %d workers, want 0", st.Workers)
	}
	co.table.SweepLeases()
	if n := len(co.table.seen); n != 0 {
		t.Fatalf("sweep kept %d silent workers", n)
	}
}

// A worker that dropped out of sight and was swept needs no enrollment
// to come back: its next claim poll lists it again.
func TestSilentWorkerReturnsOnNextPoll(t *testing.T) {
	clk := newFakeClock()
	cfg := fastCfg(clk)
	cfg.LeaseDuration = time.Second
	co := NewCoordinator(cfg)
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	claimOnce(t, ts.URL, "w1", 0)
	clk.advance(time.Second + time.Millisecond)
	co.table.SweepLeases()
	if ws, degraded := workersBody(t, ts.URL); len(ws) != 0 || !degraded {
		t.Fatalf("after a lease of silence: workers=%+v degraded=%v, want none and degraded", ws, degraded)
	}

	claimOnce(t, ts.URL, "w1", 0)
	if ws, degraded := workersBody(t, ts.URL); len(ws) != 1 || ws[0] != (WorkerView{ID: "w1"}) || degraded {
		t.Fatalf("after polling again: workers=%+v degraded=%v, want w1 back, seen 0 ms ago", ws, degraded)
	}
	if st := co.Stats(); st.Workers != 1 {
		t.Fatalf("stats count %d workers, want 1", st.Workers)
	}
}

// A busy worker polls no one: it only renews its lease with the
// coordinator that granted it, and that keeps it listed.
func TestBusyWorkerThatOnlyRenewsStaysVisible(t *testing.T) {
	tb, clk := testTable(time.Second, 3)
	key := claimKey(20)
	tb.Enqueue(key, "run/CG", "default", 0, nil)
	if _, ok := tb.Claim("w1"); !ok {
		t.Fatal("claim not granted")
	}
	for i := 0; i < 9; i++ { // three leases' worth of renewals at lease/3
		clk.advance(time.Second / 3)
		if !tb.Renew("w1", key, 1) {
			t.Fatalf("renewal %d refused", i)
		}
		tb.SweepLeases()
		if ws := tb.Workers(); len(ws) != 1 || ws[0].ID != "w1" {
			t.Fatalf("renewal %d: workers=%+v, want w1", i, ws)
		}
	}
	clk.advance(time.Second + time.Millisecond)
	if ws := tb.Workers(); len(ws) != 0 {
		t.Fatalf("after renewals stop for a lease: workers=%+v, want none", ws)
	}
}

// A lease replicated from a peer makes its holder visible on that peer,
// which the holder never polls while it is busy, for as long as the
// lease runs.
func TestReplicatedLeaseMakesHolderVisible(t *testing.T) {
	granter, gclk := testTable(time.Second, 3)
	peer, pclk := testTable(time.Second, 3)
	key := claimKey(21)
	granter.Enqueue(key, "run/CG", "default", 0, []byte(`{"kind":"run"}`))
	if _, ok := granter.Claim("w1"); !ok {
		t.Fatal("claim not granted")
	}
	peer.Merge(granter.Snapshot())
	if ws := peer.Workers(); len(ws) != 1 || ws[0].ID != "w1" {
		t.Fatalf("peer after merge: workers=%+v, want the lease holder w1", ws)
	}

	// A renewal carried over by the next push keeps the holder in sight.
	gclk.advance(800 * time.Millisecond)
	pclk.advance(800 * time.Millisecond)
	granter.Renew("w1", key, 1)
	peer.Merge(granter.Snapshot())
	pclk.advance(800 * time.Millisecond)
	if ws := peer.Workers(); len(ws) != 1 {
		t.Fatalf("peer 800 ms after a replicated renewal: workers=%+v, want w1", ws)
	}
	// Once the replicated lease has run out, so has the holder.
	pclk.advance(201 * time.Millisecond)
	if ws := peer.Workers(); len(ws) != 0 {
		t.Fatalf("peer after the replicated lease ran out: workers=%+v, want none", ws)
	}
}

// The dispatch watchdog falls back to local execution when the only
// worker goes silent while it holds the claim.
func TestDispatchFallsBackWhenWorkerGoesSilent(t *testing.T) {
	clk := newFakeClock()
	cfg := fastCfg(clk)
	cfg.SyncInterval = 5 * time.Millisecond // real-time watchdog ticks
	cfg.LeaseDuration = time.Second         // on the fake clock
	co := NewCoordinator(cfg)
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	claimOnce(t, ts.URL, "w1", 0)

	errc := make(chan error, 1)
	go func() {
		_, err := co.Dispatch(context.Background(), testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
		errc <- err
	}()
	waitFor(t, 10*time.Second, func() bool {
		_, ok := claimOnce(t, ts.URL, "w1", 50)
		return ok
	}, "claim never granted")

	// The holder's lease keeps it in sight: many watchdog ticks pass
	// without a fallback.
	select {
	case err := <-errc:
		t.Fatalf("Dispatch returned %v while the worker held a live lease", err)
	case <-time.After(50 * time.Millisecond):
	}

	clk.advance(time.Second + time.Millisecond)
	select {
	case err := <-errc:
		if !errors.Is(err, server.ErrNoWorkers) {
			t.Fatalf("Dispatch = %v, want ErrNoWorkers", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dispatch never fell back after its only worker went silent")
	}
}

// GET /cluster/workers keeps the shape fleet set-up tools read: a list
// under "workers" whose entries carry no "state", or "state":"live".
func TestWorkersViewKeepsReadinessShape(t *testing.T) {
	co := NewCoordinator(fastCfg(newFakeClock()))
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	claimOnce(t, ts.URL, "w1", 0)
	claimOnce(t, ts.URL, "w2", 0)

	body, _ := getBody(t, ts.URL+"/cluster/workers")
	var view struct {
		Workers []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	joined := 0
	for _, w := range view.Workers {
		if w.State == "" || w.State == "live" {
			joined++
		}
	}
	if joined != 2 || view.Workers[0].ID != "w1" || view.Workers[1].ID != "w2" {
		t.Fatalf("readiness view counts %d joined workers in %s, want w1 and w2", joined, body)
	}
}
