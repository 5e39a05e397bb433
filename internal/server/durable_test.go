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
	"testing"
	"time"

	"repro/internal/store"
)

// durableCfg returns a one-worker config rooted at dir.
func durableCfg(dir string) Config {
	return Config{Workers: 1, DataDir: dir}
}

func openDurable(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })
	return s, ts
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDurableDoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	a, ats := openDurable(t, durableCfg(dir))
	sr, code := submit(t, ats, runSpecBody)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	j := await(t, a, sr.Job.ID)
	want, _ := j.resultBytes()
	if len(want) == 0 {
		t.Fatalf("job produced no result: %+v", j.snapshot())
	}
	key := j.Key
	shutdown(t, a)

	b, bts := openDurable(t, durableCfg(dir))
	defer shutdown(t, b)

	// Clean restart: the done job is rehydrated — same id, same state,
	// same bytes — and nothing was requeued or re-executed.
	body, code := getBody(t, bts.URL+"/jobs/"+sr.Job.ID)
	if code != http.StatusOK {
		t.Fatalf("GET rehydrated job = %d: %s", code, body)
	}
	var v JobView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Restored {
		t.Fatalf("rehydrated job = %+v, want restored done", v)
	}
	result, code := getBody(t, bts.URL+"/jobs/"+sr.Job.ID+"/result")
	if code != http.StatusOK || !bytes.Equal([]byte(result), want) {
		t.Fatalf("rehydrated result = %d, equal=%v", code, bytes.Equal([]byte(result), want))
	}
	if got := b.RunsTotal(); got != 0 {
		t.Fatalf("restart re-executed %d jobs, want 0", got)
	}
	recovered, requeued := b.RecoveryStats()
	if recovered != 1 || requeued != 0 {
		t.Fatalf("recovery stats = %d recovered, %d requeued, want 1/0 (clean shutdown)", recovered, requeued)
	}

	// An identical submission is answered from the (disk-backed) cache.
	sr2, code := submit(t, bts, runSpecBody)
	if code != http.StatusCreated || !sr2.Cached {
		t.Fatalf("resubmit after restart = %d cached=%v, want cached hit", code, sr2.Cached)
	}

	// And the resume-by-key endpoint serves the same bytes.
	byKey, code := getBody(t, bts.URL+"/results/"+key)
	if code != http.StatusOK || !bytes.Equal([]byte(byKey), want) {
		t.Fatalf("GET /results/{key} = %d", code)
	}
}

// fabricateJournal writes records as a crashed slipd would have left
// them — the only way to simulate a SIGKILL inside a unit test.
func fabricateJournal(t *testing.T, dir string, recs ...store.Record) {
	t.Helper()
	jn, _, err := store.Open(dir+"/journal", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := jn.Append(r, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	spec := json.RawMessage(runSpecBody)
	fabricateJournal(t, dir,
		store.Record{Job: "job-7", State: string(StateQueued), Attempts: 1, Spec: spec},
		store.Record{Job: "job-7", State: string(StateRunning), Attempts: 1},
	)

	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	_, requeued := s.RecoveryStats()
	if requeued != 1 {
		t.Fatalf("requeued = %d, want 1", requeued)
	}
	j := await(t, s, "job-7")
	v := j.snapshot()
	if v.State != StateDone || v.Attempts != 2 || !v.Restored {
		t.Fatalf("requeued job settled as %+v, want restored done with attempts 2", v)
	}
	if s.RunsTotal() != 1 {
		t.Fatalf("runs = %d, want exactly 1 (the retry)", s.RunsTotal())
	}

	// The re-run's bytes match a fresh, uninterrupted run of the same
	// spec — determinism is what makes at-least-once safe.
	fresh := New(Config{Workers: 1})
	defer func() { shutdown(t, fresh) }()
	fts := httptest.NewServer(fresh.Handler())
	defer fts.Close()
	fsr, _ := submit(t, fts, runSpecBody)
	fj := await(t, fresh, fsr.Job.ID)
	wantBytes, _ := fj.resultBytes()
	gotBytes, _ := j.resultBytes()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("recovered result differs from uninterrupted run:\n%s\nvs\n%s", gotBytes, wantBytes)
	}

	// Metrics surface the recovery counters.
	metricsBody, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"slipd_jobs_requeued_total 1",
		"slipd_retries_total 1",
		"slipd_journal_bytes",
		"slipd_store_hits_total",
		"slipd_store_misses_total",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestDurableRetryBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir,
		store.Record{Job: "job-3", State: string(StateRunning), Attempts: 3, Spec: json.RawMessage(runSpecBody)},
	)
	s, _ := openDurable(t, durableCfg(dir)) // MaxAttempts defaults to 3
	j := await(t, s, "job-3")
	v := j.snapshot()
	if v.State != StateFailed || !strings.Contains(v.Error, "retry budget exhausted") {
		t.Fatalf("budget-exhausted job = %+v, want permanent failure", v)
	}
	if s.RunsTotal() != 0 {
		t.Fatalf("budget-exhausted job still ran (%d runs)", s.RunsTotal())
	}
	shutdown(t, s)

	// The permanent failure was journaled: the next start must not
	// resurrect the job.
	s2, _ := openDurable(t, durableCfg(dir))
	defer shutdown(t, s2)
	if _, requeued := s2.RecoveryStats(); requeued != 0 {
		t.Fatalf("permanently failed job was requeued again")
	}
	if st := s2.jobs["job-3"].stateNow(); st != StateFailed {
		t.Fatalf("job-3 after second restart = %s", st)
	}
}

func TestDurableMissingResultFileRequeues(t *testing.T) {
	dir := t.TempDir()
	// A done record whose bytes never made it to the result store (or
	// were wiped): replay degrades it to a requeue instead of serving a
	// result it does not have.
	fabricateJournal(t, dir,
		store.Record{Job: "job-2", Key: strings.Repeat("ab", 32), State: string(StateDone), Attempts: 1, Spec: json.RawMessage(runSpecBody)},
	)
	s, _ := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	j := await(t, s, "job-2")
	if v := j.snapshot(); v.State != StateDone || v.Attempts != 2 {
		t.Fatalf("job with lost result = %+v, want re-run done with attempts 2", v)
	}
	if s.RunsTotal() != 1 {
		t.Fatalf("runs = %d, want 1", s.RunsTotal())
	}
}

func TestDurableUnreplayableSpecFailsPermanently(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir,
		store.Record{Job: "job-4", State: string(StateQueued), Attempts: 1, Spec: json.RawMessage(`{"kind":"no-such-kind"}`)},
		store.Record{Job: "job-5", State: string(StateQueued), Attempts: 1}, // no spec at all
	)
	s, _ := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	for _, id := range []string{"job-4", "job-5"} {
		j := await(t, s, id)
		if v := j.snapshot(); v.State != StateFailed || !strings.Contains(v.Error, "unreplayable spec") {
			t.Fatalf("%s = %+v, want unreplayable-spec failure", id, v)
		}
	}
	if s.RunsTotal() != 0 {
		t.Fatalf("unreplayable specs ran anyway")
	}
}

func TestDurableCancelledJobStaysCancelled(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir,
		store.Record{Job: "job-6", State: "cancelled", Error: "cancelled by client", Attempts: 1, Spec: json.RawMessage(runSpecBody)},
	)
	s, _ := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	j := await(t, s, "job-6")
	if v := j.snapshot(); v.State != StateFailed || v.Error != "cancelled by client" {
		t.Fatalf("cancelled job rehydrated as %+v", v)
	}
	if _, requeued := s.RecoveryStats(); requeued != 0 {
		t.Fatalf("cancelled job was requeued")
	}
}

func TestDurableNextIDSkipsRehydratedJobs(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir,
		store.Record{Job: "job-41", State: "cancelled", Error: "x", Spec: json.RawMessage(runSpecBody)},
	)
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	sr, _ := submit(t, ts, runSpecBody)
	if sr.Job.ID != "job-42" {
		t.Fatalf("new job id = %s, want job-42 (past the journaled ids)", sr.Job.ID)
	}
}

func TestReadyzAndHealthz(t *testing.T) {
	s, ts := openDurable(t, durableCfg(t.TempDir()))
	for _, ep := range []string{"/healthz", "/readyz"} {
		if body, code := getBody(t, ts.URL+ep); code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", ep, code, body)
		}
	}
	shutdown(t, s)
	for _, ep := range []string{"/healthz", "/readyz"} {
		if _, code := getBody(t, ts.URL+ep); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s after shutdown = %d, want 503", ep, code)
		}
	}
}

func TestReadyzFalseBeforeReplayFinishes(t *testing.T) {
	// White-box: a server whose ready flag is unset (mid-replay) must
	// refuse readiness even though it answers liveness.
	s, ts := openDurable(t, durableCfg(t.TempDir()))
	defer shutdown(t, s)
	s.ready.Store(false)
	if _, code := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz mid-replay = %d, want 503", code)
	}
	if _, code := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz mid-replay = %d, want 200 (liveness)", code)
	}
	s.ready.Store(true)
}

func TestResultByKeyEndpoint(t *testing.T) {
	s, ts := openDurable(t, durableCfg(t.TempDir()))
	defer shutdown(t, s)
	sr, _ := submit(t, ts, runSpecBody)
	j := await(t, s, sr.Job.ID)
	want, _ := j.resultBytes()

	body, code := getBody(t, ts.URL+"/results/"+j.Key)
	if code != http.StatusOK || !bytes.Equal([]byte(body), want) {
		t.Fatalf("GET /results/{key} = %d", code)
	}
	if _, code := getBody(t, ts.URL+"/results/"+strings.Repeat("00", 32)); code != http.StatusNotFound {
		t.Fatalf("GET /results/{unknown} = %d, want 404", code)
	}
	if _, code := getBody(t, ts.URL+"/results/..%2Fetc"); code == http.StatusOK {
		t.Fatalf("GET /results with a malformed key succeeded")
	}
}

func TestAttemptsInJobViewJSON(t *testing.T) {
	s, ts := openDurable(t, durableCfg(t.TempDir()))
	defer shutdown(t, s)
	sr, _ := submit(t, ts, runSpecBody)
	await(t, s, sr.Job.ID)
	body, _ := getBody(t, ts.URL+"/jobs/"+sr.Job.ID)
	if !strings.Contains(body, `"attempts":1`) {
		t.Fatalf("job view missing attempts: %s", body)
	}
}

func TestMemoryOnlyServerStillServes(t *testing.T) {
	// Without a data dir the durability endpoints still behave: ready,
	// and /results misses cleanly.
	s, ts := newTestServer(t, Config{Workers: 1})
	if _, code := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("memory-only /readyz != 200")
	}
	sr, _ := submit(t, ts, runSpecBody)
	j := await(t, s, sr.Job.ID)
	if _, code := getBody(t, ts.URL+"/results/"+j.Key); code != http.StatusOK {
		t.Fatalf("memory-only /results/{key} after done != 200 (LRU should answer)")
	}
}

// eventsBody reads an entire SSE stream. The stream terminating at all
// is part of what these tests assert: a job whose broker is never closed
// would stream forever, and the client timeout turns that hang into a
// loud failure.
func eventsBody(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("events stream never terminated: %v", err)
	}
	return string(b)
}

// Regression: a journal-rehydrated terminal job must serve a terminal
// SSE event, not a stream that never closes.
func TestRestoredJobEventsTerminate(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir,
		store.Record{Job: "job-1", Key: strings.Repeat("ab", 32), State: string(StateFailed), Error: "boom", Attempts: 3, Spec: json.RawMessage(runSpecBody)})
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)

	body := eventsBody(t, ts, "job-1")
	if !strings.Contains(body, "event: state") || !strings.Contains(body, "data: failed") {
		t.Fatalf("restored job events missing terminal state:\n%s", body)
	}
}

// Regression: a submission answered from the result cache materializes a
// done job that never runs — its event stream must still terminate.
func TestCachedSubmissionEventsTerminate(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sr, _ := submit(t, ts, runSpecBody)
	await(t, s, sr.Job.ID)

	sr2, code := submit(t, ts, runSpecBody)
	if code != http.StatusCreated || !sr2.Cached {
		t.Fatalf("second submit: code=%d cached=%v", code, sr2.Cached)
	}
	body := eventsBody(t, ts, sr2.Job.ID)
	if !strings.Contains(body, "event: state") || !strings.Contains(body, "data: done") {
		t.Fatalf("cached job events missing terminal state:\n%s", body)
	}
}

// TestRestartReadsSharedResultOnce: done jobs journaled under one key
// rehydrate from a single result-store read and share one result slice.
func TestRestartReadsSharedResultOnce(t *testing.T) {
	dir := t.TempDir()
	a, ats := openDurable(t, durableCfg(dir))
	sr, _ := submit(t, ats, runSpecBody)
	await(t, a, sr.Job.ID)
	ids := []string{sr.Job.ID}
	for len(ids) < 50 {
		sr, code := submit(t, ats, runSpecBody)
		if code != http.StatusCreated || !sr.Cached {
			t.Fatalf("resubmit = %d cached=%v, want a cache hit", code, sr.Cached)
		}
		ids = append(ids, sr.Job.ID)
	}
	shutdown(t, a)

	b, _ := openDurable(t, durableCfg(dir))
	defer shutdown(t, b)
	if hits, _ := b.store.Stats(); hits != 1 {
		t.Fatalf("restart read the result store %d times, want 1", hits)
	}
	b.mu.Lock()
	first, last := b.jobs[ids[0]], b.jobs[ids[len(ids)-1]]
	b.mu.Unlock()
	r0, ok0 := first.resultBytes()
	r1, ok1 := last.resultBytes()
	if !ok0 || !ok1 || len(r0) == 0 || &r0[0] != &r1[0] {
		t.Fatalf("restored jobs do not share one result slice (done %v/%v, %d bytes)", ok0, ok1, len(r0))
	}
}

// TestCancelQueuedJobSettlesEverywhere: a job cancelled while queued
// leaves single-flight, the state gauges, its event stream and the
// journal settled, so a resubmission runs fresh and a restart keeps the
// cancellation instead of running the job.
func TestCancelQueuedJobSettlesEverywhere(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, durableCfg(dir))
	release := make(chan struct{})
	s.testBeforeRun = func(*Job) { <-release }

	// A holds the only worker, so B waits in the queue.
	srA, _ := submit(t, ts, runSpecBody)
	const specB = `{"kind":"run","kernel":"MG","nodes":4}`
	srB, _ := submit(t, ts, specB)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+srB.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	await(t, s, srA.Job.ID)

	sr, code := submit(t, ts, specB)
	if code != http.StatusCreated || sr.Dedup || sr.Job.ID == srB.Job.ID {
		t.Errorf("resubmission = %d dedup=%v id=%s, want a fresh 201 job", code, sr.Dedup, sr.Job.ID)
	}
	if v := await(t, s, sr.Job.ID).snapshot(); v.State != StateDone {
		t.Errorf("resubmitted job = %s (%s), want done", v.State, v.Error)
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{`slipd_jobs{state="queued"} 0`, `slipd_jobs{state="failed"} 1`} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if body := eventsBody(t, ts, srB.Job.ID); !strings.HasSuffix(body, "data: failed\n\n") {
		t.Errorf("cancelled job's event stream = %q, want it to end with the failed state", body)
	}
	shutdown(t, s)

	b, _ := openDurable(t, durableCfg(dir))
	defer shutdown(t, b)
	b.mu.Lock()
	jB := b.jobs[srB.Job.ID]
	b.mu.Unlock()
	if v := jB.snapshot(); v.State != StateFailed || v.Error != "cancelled by client" {
		t.Errorf("cancelled job after restart = %s (%s), want failed by the cancel", v.State, v.Error)
	}
	if _, requeued := b.RecoveryStats(); requeued != 0 || b.RunsTotal() != 0 {
		t.Errorf("restart requeued %d jobs and ran %d, want 0 and 0", requeued, b.RunsTotal())
	}
}

// TestResubmitOnDoneIsCacheHit: a job leaves single-flight before its
// done channel closes, so a resubmission made the moment a job is done
// is answered from the cache, never coalesced onto the finished job.
func TestResubmitOnDoneIsCacheHit(t *testing.T) {
	s, ts := openDurable(t, durableCfg(t.TempDir()))
	defer shutdown(t, s)
	for nodes := 2; nodes <= 5; nodes++ {
		spec := fmt.Sprintf(`{"kind":"run","kernel":"CG","nodes":%d}`, nodes)
		sr, _ := submit(t, ts, spec)
		await(t, s, sr.Job.ID)
		if again, code := submit(t, ts, spec); code != http.StatusCreated || !again.Cached {
			t.Errorf("nodes %d: resubmission = %d cached=%v dedup=%v, want a 201 cache hit", nodes, code, again.Cached, again.Dedup)
		}
	}
}
