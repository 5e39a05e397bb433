package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWorkerPanicRecovery is the hardening acceptance criterion: a
// panicking job settles as failed, the daemon keeps serving (metrics
// respond, a follow-up job completes), and the panic is counted.
func TestWorkerPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var once sync.Once
	s.testDuringRun = func(*Job) {
		fired := false
		once.Do(func() { fired = true })
		if fired {
			panic("kernel exploded")
		}
	}

	sr, code := submit(t, ts, runSpecBody)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateFailed {
		t.Fatalf("panicking job = %s, want failed", st)
	}
	if msg := j.snapshot().Error; !strings.Contains(msg, "panic: kernel exploded") {
		t.Fatalf("panicking job error = %q", msg)
	}
	if _, ok := s.cache.Get(j.Key); ok {
		t.Fatal("panicked job result was cached")
	}

	// The worker survived: the next job must run to completion.
	sr2, _ := submit(t, ts, `{"kind":"run","kernel":"MG","nodes":4}`)
	j2 := await(t, s, sr2.Job.ID)
	if st := j2.stateNow(); st != StateDone {
		t.Fatalf("follow-up job = %s, want done (err %q)", st, j2.snapshot().Error)
	}

	metrics, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d after panic", code)
	}
	if !strings.Contains(metrics, "slipd_panics_total 1\n") {
		t.Fatalf("metrics missing slipd_panics_total 1:\n%s", metrics)
	}
}

// TestOversizedBodyRefused: POST /jobs and POST /campaigns read at most
// maxRequestBody bytes. A valid spec padded past the bound with
// whitespace is refused 413: the cap trips while the strict decoder
// reads the trailing whitespace, after the spec itself has decoded.
// Normal-size submissions on both endpoints still succeed.
func TestOversizedBodyRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	campaign := fmt.Sprintf(`{"cells":[%s]}`, campCellBody("a", 2))
	pad := strings.Repeat(" ", maxRequestBody)
	for _, tc := range []struct{ path, body string }{
		{"/jobs", runSpecBody},
		{"/campaigns", campaign},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body+pad))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s padded past %d bytes = %d, want 413", tc.path, maxRequestBody, resp.StatusCode)
		}
	}

	sr, code := submit(t, ts, `{"kind":"run","kernel":"MG","nodes":4}`)
	if code != http.StatusCreated {
		t.Fatalf("normal POST /jobs = %d, want 201", code)
	}
	if j := await(t, s, sr.Job.ID); j.stateNow() != StateDone {
		t.Fatalf("normal job = %s (err %q)", j.stateNow(), j.snapshot().Error)
	}
	if resp, _ := postCampaign(t, ts, "", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("b", 3))); resp.StatusCode != http.StatusCreated {
		t.Fatalf("normal POST /campaigns = %d, want 201", resp.StatusCode)
	}
}

// TestJobTimeout: a job that blows the per-job deadline settles as failed
// with a timeout error, is counted, and the daemon keeps serving.
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond})
	sr, _ := submit(t, ts, runSpecBody)
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateFailed {
		t.Fatalf("timed-out job = %s, want failed", st)
	}
	if msg := j.snapshot().Error; !strings.Contains(msg, "exceeded timeout") {
		t.Fatalf("timed-out job error = %q", msg)
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "slipd_timeouts_total 1\n") {
		t.Fatalf("metrics missing slipd_timeouts_total 1:\n%s", metrics)
	}
}

// TestQueueFullRetryAfter: the 503 shed path sets Retry-After and counts
// the shed request.
func TestQueueFullRetryAfter(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.testBeforeRun = func(*Job) { <-release }

	submit(t, ts, runSpecBody)                              // occupies the worker
	submit(t, ts, `{"kind":"run","kernel":"MG","nodes":4}`) // fills the queue
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"run","kernel":"LU","nodes":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST to full queue = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 missing Retry-After header")
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "slipd_requests_shed_total 1\n") {
		t.Fatalf("metrics missing slipd_requests_shed_total 1:\n%s", metrics)
	}
	close(release)
}

// TestRunJobWithFaults: a single run with an armed plan completes, still
// verifies, reports its injections, and feeds the fault metrics.
func TestRunJobWithFaults(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sr, code := submit(t, ts, `{"kind":"run","kernel":"CG","nodes":4,"faults":{"seed":3,"rate":0.5}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("faulted run = %s (err %q)", st, j.snapshot().Error)
	}
	body, _ := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/result")
	for _, want := range []string{"faults:", "injected (plan 3:0.5)", "verification: PASSED"} {
		if !strings.Contains(body, want) {
			t.Fatalf("result missing %q:\n%s", want, body)
		}
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if strings.Contains(metrics, "slipd_faults_injected_total 0\n") {
		t.Fatalf("fault metrics not recorded:\n%s", metrics)
	}
}

// TestChaosJobEndToEnd: the chaos kind renders degradation curves with
// every cell verified.
func TestChaosJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos job at test scale is slow for -short")
	}
	s, ts := newTestServer(t, Config{Workers: 1, SuiteJobs: 4})
	sr, code := submit(t, ts, `{"kind":"chaos","kernels":["CG"],"nodes":4,"faults":{"seed":7,"rates":[0.5]}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	// Normalization must surface in the spec: rate 0 baseline included.
	if f := sr.Job.Spec.Faults; f == nil || len(f.Rates) != 2 || f.Rates[0] != 0 || f.Rates[1] != 0.5 {
		t.Fatalf("normalized chaos faults = %+v", sr.Job.Spec.Faults)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("chaos job = %s (err %q)", st, j.snapshot().Error)
	}
	body, _ := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/result")
	for _, want := range []string{
		"Chaos degradation curves (seed 7, classes all",
		"slip-G0-dyn",
		"faults cost time, never correctness",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("chaos result missing %q:\n%s", want, body)
		}
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	if strings.Contains(metrics, "slipd_faults_injected_total 0\n") ||
		strings.Contains(metrics, "slipd_recoveries_total 0\n") {
		t.Fatalf("chaos metrics not recorded:\n%s", metrics)
	}
}

// TestTasksJobEndToEnd: the tasks kind renders the team × cut-off grid
// with steal counts and every cell verified.
func TestTasksJobEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SuiteJobs: 4})
	sr, code := submit(t, ts, `{"kind":"tasks","node_counts":[2],"cutoffs":[3]}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("tasks job = %s (err %q)", st, j.snapshot().Error)
	}
	body, _ := getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/result")
	for _, want := range []string{
		"Tasking study (scale test)",
		"steals",
		"cut=3",
		"verification: PASSED",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("tasks result missing %q:\n%s", want, body)
		}
	}

	// An omitted grid takes the documented defaults in the normalized spec.
	c, err := compile(JobSpec{Kind: KindTasks})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.spec.NodeCounts) != 3 || len(c.spec.Cutoffs) != 4 {
		t.Fatalf("defaults not applied: teams %v cutoffs %v", c.spec.NodeCounts, c.spec.Cutoffs)
	}
	if _, err := c.cacheKey(); err != nil {
		t.Fatal(err)
	}
	// The cut-off grid is part of the identity: different grids, different keys.
	a, _ := compile(JobSpec{Kind: KindTasks, NodeCounts: []int{2}, Cutoffs: []int{2}})
	b, _ := compile(JobSpec{Kind: KindTasks, NodeCounts: []int{2}, Cutoffs: []int{3}})
	ka, _ := a.cacheKey()
	kb, _ := b.cacheKey()
	if ka == kb {
		t.Fatal("cutoff grids share a cache key")
	}
}

// TestFaultSpecValidation covers the new 400 paths, including the
// formerly-panicking oversized node_counts.
func TestFaultSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`{"kind":"run","kernel":"CG","faults":{"rate":2}}`,
		`{"kind":"run","kernel":"CG","faults":{"rates":[0.1]}}`,
		`{"kind":"run","kernel":"CG","faults":{"rate":0.1,"classes":["nope"]}}`,
		`{"kind":"run","kernel":"CG","tokens":2000}`,
		`{"kind":"chaos","faults":{"rate":0.5}}`,
		`{"kind":"chaos","faults":{"rates":[1.5]}}`,
		`{"kind":"chaos","kernel":"CG"}`,
		`{"kind":"static","faults":{"rate":0.5}}`,
		`{"kind":"scaling","kernel":"CG","node_counts":[100]}`,
		`{"kind":"tokens","kernel":"CG","token_counts":[2000]}`,
		`{"kind":"tasks","kernel":"CG"}`,
		`{"kind":"tasks","cutoffs":[99]}`,
		`{"kind":"tasks","node_counts":[0]}`,
		`{"kind":"tasks","faults":{"seed":1,"rate":0.5}}`,
	}
	for _, body := range bad {
		if _, code := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s → %d, want 400", body, code)
		}
	}

	// A rate-zero plan is no plan: both spellings must share a cache key.
	plain, _ := compile(JobSpec{Kind: KindRun, Kernel: "CG", Nodes: 4})
	zeroed, _ := compile(JobSpec{Kind: KindRun, Kernel: "CG", Nodes: 4,
		Faults: &FaultSpec{Seed: 9, Rate: 0}})
	k1, err1 := plain.cacheKey()
	k2, err2 := zeroed.cacheKey()
	if err1 != nil || err2 != nil || k1 != k2 {
		t.Fatalf("rate-zero plan changed the cache key: %q vs %q (%v, %v)", k1, k2, err1, err2)
	}
	// An armed plan must not share a key with the unarmed spec.
	armed, err := compile(JobSpec{Kind: KindRun, Kernel: "CG", Nodes: 4,
		Faults: &FaultSpec{Seed: 9, Rate: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	k3, _ := armed.cacheKey()
	if k3 == k1 {
		t.Fatal("armed plan shares the unarmed cache key")
	}
}
