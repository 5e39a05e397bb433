package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

const runSpecBody = `{"kind":"run","kernel":"CG","nodes":4}`

// fastCfg keeps claim tests snappy and deterministic: the background
// sweep ticker is parked at an hour so tests drive sweeps (and the fake
// clock) by hand.
func fastCfg(clk *fakeClock) Config {
	cfg := Config{
		SyncInterval: time.Hour,
		ClaimWait:    100 * time.Millisecond,
	}
	if clk != nil {
		cfg.Now = clk.now
	}
	return cfg
}

// claimOnce POSTs one claim long-poll as worker and returns the grant,
// or ok=false on 204.
func claimOnce(t *testing.T, coURL, worker string, waitMs int64) (ClaimGrant, bool) {
	t.Helper()
	body := fmt.Sprintf(`{"worker":%q,"wait_ms":%d}`, worker, waitMs)
	resp, err := http.Post(coURL+"/cluster/claims", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /cluster/claims: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return ClaimGrant{}, false
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("claim: HTTP %d: %s", resp.StatusCode, b)
	}
	g, err := DecodeClaimGrant(resp.Body)
	if err != nil {
		t.Fatalf("decode grant: %v", err)
	}
	return g, true
}

// reportClaim POSTs a terminal report and returns whether it was
// accepted.
func reportClaim(t *testing.T, coURL string, rep ClaimReport) bool {
	t.Helper()
	b, _ := json.Marshal(rep)
	resp, err := http.Post(coURL+"/cluster/claims/report", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("POST /cluster/claims/report: %v", err)
	}
	defer resp.Body.Close()
	var ack ReportAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decode report ack: %v", err)
	}
	return ack.Accepted
}

func TestDispatchNoWorkers(t *testing.T) {
	clk := newFakeClock()
	co := NewCoordinator(fastCfg(clk))
	defer co.Close()
	// The watchdog is parked, so only the up-front check can answer
	// before the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := co.Dispatch(ctx, testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
	if !errors.Is(err, server.ErrNoWorkers) {
		t.Fatalf("Dispatch with no worker ever seen: %v, want ErrNoWorkers", err)
	}

	// A worker that polled, then fell silent for longer than one lease,
	// is out of sight again.
	co.table.Claim("w1")
	clk.advance(co.cfg.LeaseDuration + time.Millisecond)
	_, err = co.Dispatch(ctx, testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
	if !errors.Is(err, server.ErrNoWorkers) {
		t.Fatalf("Dispatch after a lease of silence: %v, want ErrNoWorkers", err)
	}
	if _, _, ok := co.table.Result(testKey); ok || len(co.table.Views()) != 0 {
		t.Fatalf("a dispatch refused for want of workers left a claim behind: %+v", co.table.Views())
	}
}

func TestDispatchClaimRoundTrip(t *testing.T) {
	clk := newFakeClock()
	co := NewCoordinator(fastCfg(clk))
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	claimOnce(t, ts.URL, "w1", 0) // an empty poll makes w1 visible

	type res struct {
		b   []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		b, err := co.Dispatch(context.Background(), testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
		done <- res{b, err}
	}()

	// The worker pulls the claim over the real HTTP path and reports.
	var g ClaimGrant
	waitFor(t, 10*time.Second, func() bool {
		var ok bool
		g, ok = claimOnce(t, ts.URL, "w1", 50)
		return ok
	}, "claim never granted")
	if g.Key != testKey || g.Attempt != 1 {
		t.Fatalf("grant = %+v", g)
	}
	if !reportClaim(t, ts.URL, ClaimReport{Worker: "w1", Key: testKey, Attempt: 1, State: ClaimDone, Result: []byte("CLAIMED-BYTES")}) {
		t.Fatal("report rejected")
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("Dispatch: %v", r.err)
	}
	if string(r.b) != "CLAIMED-BYTES" {
		t.Fatalf("Dispatch returned %q", r.b)
	}
	st := co.Stats()
	if st.ClaimsGranted != 1 || st.ClaimsCompleted != 1 || st.LeaseExpirations != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The claim table view shows the settled entry.
	body, _ := getBody(t, ts.URL+"/cluster/claims")
	if !strings.Contains(body, `"state":"done"`) {
		t.Fatalf("claim view missing settled entry: %s", body)
	}
}

func TestDispatchDeterministicFailurePropagates(t *testing.T) {
	clk := newFakeClock()
	co := NewCoordinator(fastCfg(clk))
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
	reportClaim(t, ts.URL, ClaimReport{Worker: "w1", Key: testKey, Attempt: 1, State: ClaimFailed, Error: "solver diverged"})

	err := <-errc
	if err == nil || !strings.Contains(err.Error(), "solver diverged") {
		t.Fatalf("Dispatch err = %v, want the job's own failure", err)
	}
	if st := co.Stats(); st.ClaimsFailed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClaimLongPollWakes: a parked long-poll is woken by new work
// instead of sleeping out its full window.
func TestClaimLongPollWakes(t *testing.T) {
	cfg := fastCfg(nil)
	cfg.ClaimWait = 30 * time.Second // far past the test timeout
	co := NewCoordinator(cfg)
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	start := time.Now()
	got := make(chan ClaimGrant, 1)
	go func() {
		if g, ok := claimOnce(t, ts.URL, "w1", 30_000); ok {
			got <- g
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	co.table.Enqueue(testKey, "run/CG", "default", 0, nil)

	select {
	case g := <-got:
		if g.Key != testKey {
			t.Fatalf("woken claim grant = %+v", g)
		}
		if since := time.Since(start); since > 5*time.Second {
			t.Fatalf("long-poll woke after %s; enqueue did not wake it", since)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked long-poll never woke on enqueue")
	}
}

// TestClaimerVersionSkew: a claimer whose spec hash disagrees with the
// grant reports a deterministic failure instead of running.
func TestClaimerVersionSkew(t *testing.T) {
	co := NewCoordinator(fastCfg(nil))
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	c, err := StartClaimer(ClaimerConfig{
		Coordinators: []string{ts.URL},
		ID:           "w1",
		PollWait:     50 * time.Millisecond,
		KeyFor:       func([]byte) (string, error) { return strings.Repeat("00", 32), nil },
		Run: func(context.Context, []byte) ([]byte, error) {
			t.Error("skewed claim must not run")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatalf("StartClaimer: %v", err)
	}
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool { return co.Stats().Workers == 1 }, "claimer never polled")

	_, err = co.Dispatch(context.Background(), testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("Dispatch err = %v, want version-skew failure", err)
	}
}

// coordinatorServer wires a Coordinator into a real slipd server the way
// cmd/slipd does: cluster API and client API on one mux, results
// attached so settled claims land in the coordinator's cache.
func coordinatorServer(t *testing.T, cfg Config) (*Coordinator, *server.Server, *httptest.Server) {
	t.Helper()
	co := NewCoordinator(cfg)
	srv := server.New(server.Config{Cluster: co})
	co.AttachResults(srv)
	mux := http.NewServeMux()
	mux.Handle("/cluster/", co.Handler())
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		co.Close()
	})
	return co, srv, ts
}

// startWorker builds a real slipd worker the way cmd/slipd does: a
// plain server and a claimer that executes granted specs through the
// normal submission machinery.
func startWorker(t *testing.T, id string, coURLs []string) *server.Server {
	t.Helper()
	srv := server.New(server.Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	c, err := StartClaimer(ClaimerConfig{
		Coordinators: coURLs,
		ID:           id,
		Slots:        2,
		PollWait:     100 * time.Millisecond,
		KeyFor:       srv.CacheKeyFor,
		Run: func(ctx context.Context, spec []byte) ([]byte, error) {
			view, _, err := srv.SubmitJSON(spec)
			if err != nil {
				return nil, err
			}
			return srv.Await(ctx, view.ID)
		},
	})
	if err != nil {
		t.Fatalf("StartClaimer: %v", err)
	}
	t.Cleanup(c.Stop)
	return srv
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b), resp.StatusCode
}

// referenceRun executes a spec on a plain in-process server and returns
// the bytes a fleet must reproduce exactly.
func referenceRun(t *testing.T, spec string) string {
	t.Helper()
	srv := server.New(server.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	var env struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	var result string
	waitFor(t, 60*time.Second, func() bool {
		b, status := getBody(t, ts.URL+"/jobs/"+env.Job.ID+"/result")
		if status == http.StatusOK {
			result = b
			return true
		}
		return false
	}, "reference job never finished")
	return result
}

func TestFleetEndToEnd(t *testing.T) {
	want := referenceRun(t, runSpecBody)

	cfg := Config{SyncInterval: 25 * time.Millisecond, ClaimWait: 100 * time.Millisecond}
	co, _, cts := coordinatorServer(t, cfg)

	w1 := startWorker(t, "worker-0", []string{cts.URL})
	w2 := startWorker(t, "worker-1", []string{cts.URL})

	// Both workers become visible through their claim polls.
	waitFor(t, 10*time.Second, func() bool {
		return co.Stats().Workers == 2
	}, "workers never became visible")

	// A job submitted to the coordinator is claimed by a worker and
	// returns byte-identical results.
	resp, err := http.Post(cts.URL+"/jobs", "application/json", strings.NewReader(runSpecBody))
	if err != nil {
		t.Fatalf("submit to coordinator: %v", err)
	}
	var env struct {
		Job struct {
			ID  string `json:"id"`
			Key string `json:"key"`
		} `json:"job"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	var got string
	waitFor(t, 60*time.Second, func() bool {
		b, status := getBody(t, cts.URL+"/jobs/"+env.Job.ID+"/result")
		if status == http.StatusOK {
			got = b
			return true
		}
		return false
	}, "fleet job never finished")
	if got != want {
		t.Fatalf("fleet result differs from local reference:\nfleet: %q\nlocal: %q", got, want)
	}

	// The job actually ran on a worker, not on the coordinator.
	if w1.RunsTotal()+w2.RunsTotal() == 0 {
		t.Fatal("no worker executed anything; the coordinator must have run the job itself")
	}
	// AttachResults landed the settled bytes in the coordinator's own
	// content-addressed cache.
	byKey, status := getBody(t, cts.URL+"/results/"+env.Job.Key)
	if status != http.StatusOK || byKey != want {
		t.Fatalf("coordinator /results/{key}: HTTP %d %q", status, byKey)
	}

	// Fleet observability: metrics gauges and a healthy readyz. A clean
	// fleet has no legal source of lease expirations or duplicate
	// terminal reports.
	metrics, _ := getBody(t, cts.URL+"/metrics")
	for _, want := range []string{
		"slipd_workers 2",
		`slipd_claims_total{outcome="done"} 1`,
		`slipd_claims_total{outcome="duplicate"} 0`,
		"slipd_lease_expirations_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	ready, status := getBody(t, cts.URL+"/readyz")
	if status != http.StatusOK || !strings.Contains(ready, `"degraded":false`) || !strings.Contains(ready, `"role":"coordinator"`) {
		t.Fatalf("readyz: HTTP %d %s", status, ready)
	}
	workers, _ := getBody(t, cts.URL+"/cluster/workers")
	if !strings.Contains(workers, `"worker-0"`) || !strings.Contains(workers, `"worker-1"`) {
		t.Fatalf("/cluster/workers missing fleet members: %s", workers)
	}
}

func TestCoordinatorDegradedLocalFallback(t *testing.T) {
	want := referenceRun(t, runSpecBody)

	cfg := Config{SyncInterval: 25 * time.Millisecond, ClaimWait: 100 * time.Millisecond}
	_, srv, cts := coordinatorServer(t, cfg)

	// Zero workers: the coordinator must still answer, locally.
	resp, err := http.Post(cts.URL+"/jobs", "application/json", strings.NewReader(runSpecBody))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var env struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	var got string
	waitFor(t, 60*time.Second, func() bool {
		b, status := getBody(t, cts.URL+"/jobs/"+env.Job.ID+"/result")
		if status == http.StatusOK {
			got = b
			return true
		}
		return false
	}, "degraded job never finished")
	if got != want {
		t.Fatalf("degraded result differs from reference:\n%q\n%q", got, want)
	}
	if srv.RunsTotal() == 0 {
		t.Fatal("coordinator did not execute locally")
	}

	ready, status := getBody(t, cts.URL+"/readyz")
	if status != http.StatusOK || !strings.Contains(ready, `"degraded":true`) {
		t.Fatalf("readyz in degraded mode: HTTP %d %s", status, ready)
	}
	metrics, _ := getBody(t, cts.URL+"/metrics")
	if !strings.Contains(metrics, "slipd_workers 0") {
		t.Fatalf("metrics missing zero worker gauge:\n%s", metrics)
	}
	if !strings.Contains(metrics, "slipd_local_fallbacks_total 1") {
		t.Fatalf("metrics missing local fallback counter:\n%s", metrics)
	}
}

// swapHandler lets two peered coordinators learn each other's URL: the
// httptest servers come up first with an empty handler, the real
// handlers are installed once both URLs are known.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// TestTwoCoordinatorFailover is the HA tentpole in miniature: two
// peered coordinators replicate the claim table; when the granting
// coordinator dies mid-claim, the survivor's copy of the lease expires
// and a second worker finishes the job through the survivor alone.
func TestTwoCoordinatorFailover(t *testing.T) {
	hA, hB := &swapHandler{}, &swapHandler{}
	tsA := httptest.NewServer(hA)
	tsB := httptest.NewServer(hB)
	defer tsB.Close()

	mkCfg := func(self, peer string) Config {
		return Config{
			SyncInterval:  25 * time.Millisecond,
			LeaseDuration: 250 * time.Millisecond,
			ClaimWait:     100 * time.Millisecond,
			SelfID:        self,
			Peers:         []string{peer},
		}
	}
	coA := NewCoordinator(mkCfg("co-a", tsB.URL))
	coB := NewCoordinator(mkCfg("co-b", tsA.URL))
	defer coB.Close()
	hA.set(coA.Handler())
	hB.set(coB.Handler())

	// With both peers up and a polling worker each, neither is degraded.
	waitFor(t, 10*time.Second, func() bool {
		claimOnce(t, tsA.URL, "w1", 0)
		claimOnce(t, tsB.URL, "w2", 0)
		return !coA.Stats().Degraded && !coB.Stats().Degraded
	}, "peered coordinators never became healthy")

	// The job enters A's claim table and w1 claims it from A.
	go coA.Dispatch(context.Background(), testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
	waitFor(t, 10*time.Second, func() bool {
		_, ok := claimOnce(t, tsA.URL, "w1", 50)
		return ok
	}, "claim never granted by A")

	// Replication carries the claimed lease to B.
	waitFor(t, 10*time.Second, func() bool {
		for _, v := range coB.table.Views() {
			if v.Key == testKey && v.State == ClaimClaimed && v.Attempt == 1 {
				return true
			}
		}
		return false
	}, "claimed lease never replicated to B")

	// A dies with the lease bookkeeping; w1's report would have gone to
	// A and is lost with it.
	tsA.Close()
	coA.Close()

	// On the survivor, the lease expires and the claim goes back to
	// pending; a second worker claims it from B and settles it there.
	var g ClaimGrant
	waitFor(t, 10*time.Second, func() bool {
		var ok bool
		g, ok = claimOnce(t, tsB.URL, "w2", 50)
		return ok
	}, "survivor never re-granted the orphaned claim")
	if g.Key != testKey || g.Attempt < 2 {
		t.Fatalf("survivor grant = %+v, want attempt ≥ 2", g)
	}
	if !reportClaim(t, tsB.URL, ClaimReport{Worker: "w2", Key: testKey, Attempt: g.Attempt, State: ClaimDone, Result: []byte("SURVIVOR-BYTES")}) {
		t.Fatal("survivor report rejected")
	}

	b, errMsg, ok := coB.table.Result(testKey)
	if !ok || errMsg != "" || string(b) != "SURVIVOR-BYTES" {
		t.Fatalf("survivor result = %q %q %v", b, errMsg, ok)
	}
	st := coB.Stats()
	if st.LeaseExpirations < 1 {
		t.Fatalf("survivor stats: %+v, want at least one lease expiration", st)
	}
	// No claim is left stranded on the survivor.
	for _, v := range coB.table.Views() {
		if v.State != ClaimDone && v.State != ClaimFailed {
			t.Fatalf("stranded claim on survivor: %+v", v)
		}
	}
	// The dead peer shows up as unreachable and degrades the survivor.
	waitFor(t, 10*time.Second, func() bool {
		s := coB.Stats()
		return s.Degraded && len(s.Peers) == 1 && !s.Peers[0].Reachable
	}, "survivor never marked the dead peer unreachable")
}
