package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// runSpecBody is the canonical fast job used throughout: a single CG run
// at test scale on 4 CMPs.
const runSpecBody = `{"kind":"run","kernel":"CG","nodes":4}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// submit POSTs a spec and decodes the response envelope.
func submit(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return sr, resp.StatusCode
}

// await blocks until the job reaches a terminal state.
func await(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.done:
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", id, j.stateNow())
	}
	return j
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

func TestSubmitRunJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Hold the only worker until the submit response is read, so the
	// job is still queued when the response is rendered.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	s.testBeforeRun = func(*Job) { <-gate }
	sr, code := submit(t, ts, runSpecBody)
	release()
	if code != http.StatusCreated {
		t.Fatalf("POST = %d, want 201", code)
	}
	if sr.Job.State != StateQueued || sr.Dedup || sr.Cached {
		t.Fatalf("submit response = %+v", sr)
	}
	if sr.Job.Spec.Scale != "test" || sr.Job.Spec.Mode != "slipstream" ||
		sr.Job.Spec.Sync != "GLOBAL_SYNC" || sr.Job.Spec.Sched != "static" {
		t.Fatalf("defaults not applied in normalized spec: %+v", sr.Job.Spec)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("final state = %s, want done (err %q)", st, j.snapshot().Error)
	}

	body, code := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, body)
	}
	for _, want := range []string{"CG", "cycles:", "verification: PASSED"} {
		if !strings.Contains(body, want) {
			t.Fatalf("result missing %q:\n%s", want, body)
		}
	}

	view, code := getBody(t, ts.URL+"/jobs/"+sr.Job.ID)
	if code != http.StatusOK || !strings.Contains(view, `"state":"done"`) {
		t.Fatalf("GET job = %d: %s", code, view)
	}
	list, code := getBody(t, ts.URL+"/jobs")
	if code != http.StatusOK || !strings.Contains(list, sr.Job.ID) {
		t.Fatalf("GET jobs = %d: %s", code, list)
	}
}

// TestSingleFlight50 is the acceptance criterion: 50 concurrent identical
// submissions produce exactly one underlying simulation run and 50
// byte-identical results (served by the in-flight job or the cache —
// either way nothing runs twice).
func TestSingleFlight50(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const n = 50
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sr, code := submit(t, ts, runSpecBody)
			if code != http.StatusOK && code != http.StatusCreated {
				t.Errorf("POST %d = %d", i, code)
				return
			}
			ids[i] = sr.Job.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var first []byte
	for i, id := range ids {
		j := await(t, s, id)
		if st := j.stateNow(); st != StateDone {
			t.Fatalf("job %s state = %s (err %q)", id, st, j.snapshot().Error)
		}
		result, _ := j.resultBytes()
		if i == 0 {
			first = result
			continue
		}
		if !bytes.Equal(result, first) {
			t.Fatalf("job %s result differs from first:\n%s\nvs\n%s", id, result, first)
		}
	}
	if len(first) == 0 {
		t.Fatal("empty result bytes")
	}
	if got := s.RunsTotal(); got != 1 {
		t.Fatalf("runs total = %d, want exactly 1 underlying run", got)
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "slipd_runs_total 1\n") {
		t.Fatalf("metrics missing slipd_runs_total 1:\n%s", metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("slipd_jobs_submitted_total %d", n)) &&
		!strings.Contains(metrics, "slipd_jobs_deduplicated_total") {
		t.Fatalf("metrics missing submission counters:\n%s", metrics)
	}
}

func TestCacheHitServesSecondSubmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sr1, _ := submit(t, ts, runSpecBody)
	j1 := await(t, s, sr1.Job.ID)
	r1, _ := j1.resultBytes()

	sr2, code := submit(t, ts, runSpecBody)
	if code != http.StatusCreated {
		t.Fatalf("second POST = %d", code)
	}
	if !sr2.Cached || sr2.Job.State != StateDone || !sr2.Job.Cached {
		t.Fatalf("second submission not served from cache: %+v", sr2)
	}
	j2 := await(t, s, sr2.Job.ID)
	r2, _ := j2.resultBytes()
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached result differs from original")
	}
	if got := s.RunsTotal(); got != 1 {
		t.Fatalf("runs total = %d after cache hit, want 1", got)
	}

	// A spelling-variant spec (same canonical form) must also hit.
	sr3, _ := submit(t, ts, `{"kind":"run","kernel":"cg","nodes":4,"scale":"TEST","verify":true}`)
	if !sr3.Cached {
		t.Fatalf("canonically-equal spec missed the cache: %+v", sr3)
	}

	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "slipd_cache_hits_total 2\n") {
		t.Fatalf("metrics missing cache hits:\n%s", metrics)
	}
	if !strings.Contains(metrics, "slipd_cache_hit_ratio 0.6667\n") {
		t.Fatalf("metrics missing hit ratio 2/3:\n%s", metrics)
	}
}

func TestDifferentSpecsDoNotCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	sr1, _ := submit(t, ts, runSpecBody)
	sr2, _ := submit(t, ts, `{"kind":"run","kernel":"CG","nodes":4,"mode":"single"}`)
	if sr1.Job.Key == sr2.Job.Key {
		t.Fatal("distinct specs share a cache key")
	}
	await(t, s, sr1.Job.ID)
	await(t, s, sr2.Job.ID)
	if got := s.RunsTotal(); got != 2 {
		t.Fatalf("runs total = %d, want 2", got)
	}
}

func TestValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`not json`,
		`{"kind":"run","kernel":"CG"} trailing`,
		`{"kind":"run","kernel":"CG","bogus":1}`,
		`{}`,
		`{"kind":"warp"}`,
		`{"kind":"run"}`,
		`{"kind":"run","kernel":"ZZ"}`,
		`{"kind":"run","kernel":"CG","nodes":-1}`,
		`{"kind":"run","kernel":"CG","scale":"huge"}`,
		`{"kind":"run","kernel":"CG","mode":"triple"}`,
		`{"kind":"run","kernel":"CG","sync":"SOMETIMES"}`,
		`{"kind":"run","kernel":"CG","sched":"chaotic"}`,
		`{"kind":"run","kernel":"CG","chunk":-2}`,
		`{"kind":"static","kernel":"CG"}`,
		`{"kind":"static","kernels":["CG","??"]}`,
		`{"kind":"static","kernels":["EP"]}`, // a run kernel the suites do not filter
		`{"kind":"scaling","kernel":"CG"}`,
		`{"kind":"scaling","kernel":"CG","node_counts":[2,2]}`,
		`{"kind":"scaling","kernel":"CG","node_counts":[0]}`,
		`{"kind":"tokens","kernel":"CG"}`,
		`{"kind":"tokens","kernel":"CG","token_counts":[-1]}`,
		`{"kind":"run","kernel":"CG","params":{"nope":1}}`,
	}
	for _, body := range bad {
		if _, code := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s → %d, want 400", body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestResultConflictWhilePending(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1})
	s.testBeforeRun = func(*Job) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sr, _ := submit(t, ts, runSpecBody)
	if _, code := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result while pending = %d, want 409", code)
	}
	close(release)
	await(t, s, sr.Job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1})
	s.testBeforeRun = func(*Job) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job A occupies the only worker; B waits in the queue. B must use a
	// different spec or it would coalesce onto A.
	srA, _ := submit(t, ts, runSpecBody)
	srB, _ := submit(t, ts, `{"kind":"run","kernel":"MG","nodes":4}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+srB.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if view.State != StateFailed || !strings.Contains(view.Error, "cancelled") {
		t.Fatalf("cancelled queued job = %+v", view)
	}

	close(release)
	jA := await(t, s, srA.Job.ID)
	if jA.stateNow() != StateDone {
		t.Fatalf("job A = %s, want done", jA.stateNow())
	}
	jB := await(t, s, srB.Job.ID)
	if jB.stateNow() != StateFailed {
		t.Fatalf("job B = %s, want failed", jB.stateNow())
	}
	// The worker must have skipped B: only A ran.
	if got := s.RunsTotal(); got != 1 {
		t.Fatalf("runs total = %d, want 1 (cancelled job must not run)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.testBeforeRun = func(*Job) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit(t, ts, runSpecBody)                              // occupies the worker
	submit(t, ts, `{"kind":"run","kernel":"MG","nodes":4}`) // fills the queue
	_, code := submit(t, ts, `{"kind":"run","kernel":"LU","nodes":4}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST to full queue = %d, want 503", code)
	}
	// The shed job must not linger in the single-flight index: once the
	// queue drains, resubmitting it must be accepted.
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownDrains is the graceful-termination acceptance criterion:
// with jobs queued and running, Shutdown finishes all of them and
// returns nil, and the server refuses new work while draining. cmd/slipd
// wires SIGTERM to exactly this call.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []string{
		runSpecBody,
		`{"kind":"run","kernel":"MG","nodes":4}`,
		`{"kind":"run","kernel":"LU","nodes":4}`,
		`{"kind":"run","kernel":"SP","nodes":4}`,
	}
	ids := make([]string, len(specs))
	for i, b := range specs {
		sr, code := submit(t, ts, b)
		if code != http.StatusCreated {
			t.Fatalf("POST %d = %d", i, code)
		}
		ids[i] = sr.Job.ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown returned %v, want nil (clean drain)", err)
	}
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if st := j.stateNow(); st != StateDone {
			t.Fatalf("job %s = %s after drain, want done (err %q)", id, st, j.snapshot().Error)
		}
	}
	if _, code := submit(t, ts, runSpecBody); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", code)
	}
	if _, code := getBody(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", code)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown = %v, want nil no-op", err)
	}
}

// TestShutdownDeadlineCancelsInFlight: when the drain deadline passes,
// in-flight work is cancelled, jobs fail (partial results are never
// cached), and Shutdown reports the deadline error.
func TestShutdownDeadlineCancels(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Workers: 1})
	var once sync.Once
	s.testBeforeRun = func(*Job) {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One job held at the hook, one static suite queued behind it.
	srA, _ := submit(t, ts, runSpecBody)
	srB, _ := submit(t, ts, `{"kind":"static","kernels":["CG"],"nodes":4}`)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already passed: drain must cut over to cancellation
	errCh := make(chan error, 1)
	go func() { errCh <- s.Shutdown(ctx) }()
	close(release)
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("shutdown = %v, want context.Canceled", err)
	}

	await(t, s, srA.Job.ID)
	jB := await(t, s, srB.Job.ID)
	// Job B ran under the cancelled run context: it must fail with partial
	// cell errors, and the failure must not be cached.
	if st := jB.stateNow(); st != StateFailed {
		t.Fatalf("job B = %s after deadline shutdown, want failed", st)
	}
	if !strings.Contains(jB.snapshot().Error, "context canceled") {
		t.Fatalf("job B error = %q, want cancellation", jB.snapshot().Error)
	}
	if _, ok := s.cache.Get(jB.Key); ok {
		t.Fatal("failed job result was cached")
	}
}

func TestSSEStreamReplaysProgressAndState(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sr, _ := submit(t, ts, `{"kind":"scaling","kernel":"CG","node_counts":[2,4]}`)
	await(t, s, sr.Job.ID)

	body, code := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET events = %d", code)
	}
	if !strings.Contains(body, "event: progress\ndata: ") {
		t.Fatalf("no progress events replayed:\n%s", body)
	}
	if !strings.HasSuffix(strings.TrimSpace(body), "event: state\ndata: done") &&
		!strings.Contains(body, "event: state\ndata: done") {
		t.Fatalf("missing terminal state event:\n%s", body)
	}
}

func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sr, _ := submit(t, ts, runSpecBody)
	await(t, s, sr.Job.ID)

	body, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE slipd_jobs_submitted_total counter",
		"slipd_jobs_submitted_total 1",
		"# TYPE slipd_jobs gauge",
		`slipd_jobs{state="done"} 1`,
		`slipd_jobs{state="queued"} 0`,
		"slipd_queue_depth 0",
		"slipd_cache_misses_total 1",
		"slipd_cache_entries 1",
		"# TYPE slipd_run_seconds histogram",
		`slipd_run_seconds_bucket{job="CG",le="+Inf"} 1`,
		`slipd_run_seconds_count{job="CG"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSuiteJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("suite job at test scale is slow for -short")
	}
	s, ts := newTestServer(t, Config{Workers: 1, SuiteJobs: 4})
	sr, _ := submit(t, ts, `{"kind":"static","kernels":["CG","MG"],"nodes":4}`)
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("static suite = %s (err %q)", st, j.snapshot().Error)
	}
	body, _ := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/result")
	for _, want := range []string{"CG", "MG", "slipstream"} {
		if !strings.Contains(body, want) {
			t.Fatalf("suite result missing %q:\n%s", want, body)
		}
	}
	if len(j.broker.history()) == 0 {
		t.Fatal("suite emitted no progress lines")
	}
}
