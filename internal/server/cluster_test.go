package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeCluster scripts the dispatch backend: it either answers with fixed
// bytes or reports no workers, and counts how often it was asked.
type fakeCluster struct {
	bytes      []byte
	noWorkers  bool
	degraded   bool
	calls      atomic.Int64
	lastTenant atomic.Value // string: tenant of the last dispatch
}

func (f *fakeCluster) Dispatch(ctx context.Context, key, label, tenant string, priority int, spec JobSpec, progress io.Writer) ([]byte, error) {
	f.calls.Add(1)
	f.lastTenant.Store(tenant)
	if f.noWorkers {
		return nil, ErrNoWorkers
	}
	io.WriteString(progress, "remote worker says hello\n")
	return f.bytes, nil
}

func (f *fakeCluster) Stats() ClusterStats {
	return ClusterStats{
		Role:             "coordinator",
		Workers:          2,
		Peers:            []PeerStatus{{URL: "http://peer-b", Reachable: true, LagMs: 12}},
		ClaimsGranted:    9,
		ClaimsCompleted:  5,
		ClaimsFailed:     1,
		ClaimsDuplicate:  2,
		LeaseExpirations: 4,
		Degraded:         f.degraded,
	}
}

func TestClusterDispatchSeam(t *testing.T) {
	fc := &fakeCluster{bytes: []byte("REMOTE-RESULT")}
	s, ts := newTestServer(t, Config{Workers: 1, Cluster: fc})

	sr, code := submit(t, ts, runSpecBody)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("job state = %s", st)
	}
	got, _ := j.resultBytes()
	if string(got) != "REMOTE-RESULT" {
		t.Fatalf("job result = %q, want the cluster backend's bytes", got)
	}
	if fc.calls.Load() != 1 {
		t.Fatalf("backend dispatched %d times, want 1", fc.calls.Load())
	}

	// Coordinator metrics expose the fleet and the claim table.
	body, _ := getBody(t, ts.URL+"/metrics")
	for _, line := range []string{
		"slipd_workers 2\n",
		`slipd_claims_total{outcome="granted"} 9`,
		`slipd_claims_total{outcome="done"} 5`,
		`slipd_claims_total{outcome="failed"} 1`,
		`slipd_claims_total{outcome="duplicate"} 2`,
		`slipd_lease_expirations_total 4`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q", line)
		}
	}

	// /readyz reports the coordinator role and peer replication health.
	ready, status := getBody(t, ts.URL+"/readyz")
	if status != http.StatusOK {
		t.Fatalf("readyz = %d", status)
	}
	for _, want := range []string{`"role":"coordinator"`, `"url":"http://peer-b"`, `"reachable":true`, `"replication_lag_ms":12`} {
		if !strings.Contains(ready, want) {
			t.Errorf("readyz missing %s: %s", want, ready)
		}
	}
}

func TestClusterNoWorkersFallsBackLocally(t *testing.T) {
	fc := &fakeCluster{noWorkers: true, degraded: true}
	s, ts := newTestServer(t, Config{Workers: 1, Cluster: fc})

	sr, code := submit(t, ts, runSpecBody)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	j := await(t, s, sr.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("job state = %s, want done via local fallback (%s)", st, j.snapshot().Error)
	}
	got, _ := j.resultBytes()
	if len(got) == 0 {
		t.Fatal("local fallback produced no result")
	}
	if s.RunsTotal() == 0 {
		t.Fatal("local fallback did not actually execute the simulation")
	}

	body, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "slipd_local_fallbacks_total 1") {
		t.Fatalf("metrics missing local fallback counter:\n%s", body)
	}

	// /readyz stays 200 but carries the degraded flag.
	ready, status := getBody(t, ts.URL+"/readyz")
	if status != http.StatusOK || !strings.Contains(ready, `"degraded":true`) {
		t.Fatalf("readyz = %d %s", status, ready)
	}
}

func TestMetricsOmitClusterBlockWithoutBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := getBody(t, ts.URL+"/metrics")
	if strings.Contains(body, "slipd_workers") || strings.Contains(body, "slipd_claims_total") {
		t.Fatalf("non-coordinator metrics leak cluster gauges:\n%s", body)
	}
	ready, _ := getBody(t, ts.URL+"/readyz")
	if strings.Contains(ready, "degraded") {
		t.Fatalf("non-coordinator readyz carries degraded flag: %s", ready)
	}
}
