package server

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// Fleet seam: a Server configured with a Cluster backend routes job
// execution through it instead of running simulations in-process. The
// backend (internal/cluster's coordinator) owns handing jobs to workers
// and recovering them from failed ones; the server keeps owning
// admission, dedup, the cache, durability, and the client-facing API.
// The seam is sound for the same reason the cache is: simulations are
// deterministic and content-addressed, so a job executed remotely —
// even twice, on two workers — yields exactly the bytes a local run
// would have produced.

// ErrNoWorkers is returned by a Cluster backend when no worker can take
// the job. The server then degrades gracefully: it executes the job
// locally in-process and reports degraded=true on /readyz.
var ErrNoWorkers = errors.New("cluster: no visible workers")

// PeerStatus is one peer coordinator's replication health, surfaced on
// /readyz.
type PeerStatus struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
	// LagMs is the age of the last successful replication to this peer
	// in milliseconds, or -1 before the first success.
	LagMs int64 `json:"replication_lag_ms"`
}

// ClusterStats is a point-in-time snapshot of the fleet, surfaced in
// /metrics and on /readyz.
type ClusterStats struct {
	// Role identifies this node's part in the fleet ("coordinator").
	Role string
	// Workers counts the workers visible to this coordinator.
	Workers int
	// Peers lists the other coordinators and their replication lag.
	Peers []PeerStatus
	// Claim lifecycle counters: leases granted (first claims and expiry
	// reclaims), claims settled done/failed, duplicate terminal reports
	// discarded, and leases that expired back to pending.
	ClaimsGranted    uint64
	ClaimsCompleted  uint64
	ClaimsFailed     uint64
	ClaimsDuplicate  uint64
	LeaseExpirations uint64
	// Degraded is true while no worker is visible or a peer coordinator
	// is unreachable.
	Degraded bool
}

// Cluster is the dispatch backend a coordinator plugs into Config. The
// server calls Dispatch from its worker goroutines with the job's cache
// key, metrics label, admission identity (tenant and priority class, so
// claims preserve fair-scheduling order fleet-wide), and normalized
// spec; progress lines written to progress reach the job's SSE
// subscribers.
type Cluster interface {
	Dispatch(ctx context.Context, key, label, tenant string, priority int, spec JobSpec, progress io.Writer) ([]byte, error)
	Stats() ClusterStats
}

// executeOrDispatch is the seam runJob calls: without a cluster backend
// it executes in-process; with one it dispatches, falling back to local
// execution when no worker is available.
func (s *Server) executeOrDispatch(ctx context.Context, j *Job) ([]byte, error) {
	if s.cfg.Cluster == nil {
		return s.executeGuarded(ctx, j)
	}
	result, err := s.cfg.Cluster.Dispatch(ctx, j.Key, j.c.label(), j.tenant, j.priority, j.c.spec(), j.broker)
	if errors.Is(err, ErrNoWorkers) {
		s.metrics.localFallback()
		fmt.Fprintf(j.broker, "cluster: no visible workers; executing locally in degraded mode\n")
		return s.executeGuarded(ctx, j)
	}
	return result, err
}

// Await blocks until the identified job reaches a terminal state and
// returns its result bytes (or its failure as an error). It is the seam
// a worker's claim loop uses after SubmitJSON: submit the granted spec,
// await the outcome, report it back to the coordinator.
func (s *Server) Await(ctx context.Context, id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no such job %q", id)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	if b, ok := j.resultBytes(); ok {
		return b, nil
	}
	return nil, errors.New(j.snapshot().Error)
}

// clusterStats snapshots the backend for /metrics (nil when the server
// is not a coordinator).
func (s *Server) clusterStats() *ClusterStats {
	if s.cfg.Cluster == nil {
		return nil
	}
	st := s.cfg.Cluster.Stats()
	return &st
}
