package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/store"
)

// Durability: with Config.DataDir set, every job transition is recorded
// in a write-ahead journal and every completed result is written to a
// disk-backed content-addressed store before the in-memory LRU sees it.
// On startup the journal is replayed: terminal jobs are rehydrated (done
// jobs pick their bytes back up from the result store), and jobs that
// were queued or running when the process died are requeued at once
// under a bounded retry budget. This is sound for the same reason the
// result cache is sound — every simulation is deterministic and
// side-effect-free, so at-least-once re-execution is idempotent and
// equal cache keys always name equal bytes.

// journalStateCancelled marks a client cancellation in the journal; it
// folds back to StateFailed on replay (the job never ran to completion).
const journalStateCancelled = "cancelled"

// Open builds a Server, replaying the journal under cfg.DataDir when one
// is configured, and starts its workers. New is the in-memory
// convenience wrapper; this is the constructor the daemon uses.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     newLRUCache(cfg.CacheBytes),
		metrics:   newMetrics(),
		jobs:      map[string]*Job{},
		inflight:  map[string]*Job{},
		campaigns: map[string]*campaign{},
		sched:     newScheduler(cfg, time.Now),
		quit:      make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if cfg.DataDir != "" {
		rs, err := store.OpenResults(filepath.Join(cfg.DataDir, "results"))
		if err != nil {
			return nil, fmt.Errorf("open result store: %w", err)
		}
		s.store = rs
		jn, recs, err := store.Open(filepath.Join(cfg.DataDir, "journal"), 0)
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		s.journal = jn
		s.replay(recs)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.ready.Store(true)
	return s, nil
}

// replay folds the journal back into live state: terminal jobs
// rehydrate, interrupted jobs requeue (or exhaust their retry budget and
// settle as failed). Runs before the workers start and before the
// handler is reachable, so /readyz turning 200 means replay is complete.
func (s *Server) replay(recs []store.Record) {
	// Jobs first, then campaigns: a campaign rebuild reattaches to the
	// requeued jobs (via the in-flight index) and the cache entries the
	// job pass restored.
	var campRecs, cellRecs []store.Record
	for _, r := range recs {
		if r.Campaign != "" && r.Job == r.Campaign {
			campRecs = append(campRecs, r)
			continue
		}
		if r.Campaign != "" && strings.HasPrefix(r.Job, r.Campaign+"/") {
			cellRecs = append(cellRecs, r)
			continue
		}
		s.noteJobID(r.Job)
		switch r.State {
		case string(StateDone):
			s.rehydrateDone(r)
		case string(StateFailed), journalStateCancelled:
			s.restoreTerminal(r, StateFailed, r.Error, nil)
		default: // queued, running, or anything a future version wrote
			s.requeue(r)
		}
	}
	s.rebuildCampaigns(campRecs, cellRecs)
}

// noteJobID keeps nextID ahead of every journaled id so new submissions
// never collide with rehydrated jobs.
func (s *Server) noteJobID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// rehydrateDone restores a completed job, pulling its bytes through the
// tiered cache, so done jobs that share a key cost one store read and
// share one slice. A done record whose bytes are gone (store wiped,
// partial copy) degrades to a requeue — determinism makes the re-run
// produce the same result the record promised.
func (s *Server) rehydrateDone(r store.Record) {
	bytes, ok := s.cacheGet(r.Key)
	if !ok {
		s.requeue(r)
		return
	}
	s.restoreTerminal(r, StateDone, "", bytes)
}

// recordSubmission is the admission identity a journal record carries.
func recordSubmission(r store.Record) submission {
	return submission{tenant: r.Tenant, priority: PriorityValue(r.Priority), campaign: r.Campaign, cell: r.Cell}
}

// restoreTerminal registers a journaled job already in a terminal state.
func (s *Server) restoreTerminal(r store.Record, st State, errMsg string, result []byte) {
	var spec JobSpec
	if len(r.Spec) > 0 {
		json.Unmarshal(r.Spec, &spec) // best-effort: the view shows what survived
	}
	j := newJob(r.Job, r.Key, &compiledSpec{spec: spec}, st, recordSubmission(r))
	j.restored, j.cached, j.result, j.errMsg = true, r.Cached, result, errMsg
	if r.Attempts > 0 {
		j.attempts = r.Attempts
	}
	s.addJobLocked(j)
	s.metrics.jobRestored(false)
}

// requeue puts a crash-interrupted job back on the queue, charging its
// retry budget. Budget exhaustion and unreplayable specs settle the job
// as permanently failed — journaled, so the next restart doesn't retry
// it again. Replay runs before the workers start, so the job needs no
// delay: MaxAttempts already bounds a job that keeps killing the
// process.
func (s *Server) requeue(r store.Record) {
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	next := attempts + 1

	fail := func(msg string) {
		s.restoreTerminal(r, StateFailed, msg, nil)
		s.journalAppend(store.Record{Job: r.Job, Key: r.Key, State: string(StateFailed), Error: msg, Attempts: attempts}, true)
	}
	if next > s.cfg.MaxAttempts {
		fail(fmt.Sprintf("crash-recovery retry budget exhausted after %d attempts", attempts))
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(r.Spec, &spec); err != nil {
		fail(fmt.Sprintf("unreplayable spec: %v", err))
		return
	}
	c, err := compile(spec)
	if err != nil {
		fail(fmt.Sprintf("unreplayable spec: %v", err))
		return
	}
	// Re-derive the key under the current code version: if the version
	// was bumped between restarts, the re-run must cache under the new
	// truth, not the old record's.
	key, err := c.cacheKey()
	if err != nil {
		fail(fmt.Sprintf("unreplayable spec: %v", err))
		return
	}

	sub := recordSubmission(r)
	sub.priority = c.priority
	j := newJob(r.Job, key, c, StateQueued, sub)
	j.restored, j.attempts = true, next
	s.addJobLocked(j)
	s.metrics.jobRestored(true)
	s.journalAppend(j.firstRecord(), false)
	// Unconditional: journaled work must never be dropped by admission
	// limits — the budget that bounds it is MaxAttempts.
	s.sched.force(j)
}

// journalAppend records a transition, degrading gracefully on write
// errors: the daemon keeps serving from memory and the failure is
// visible in slipd_journal_errors_total.
func (s *Server) journalAppend(r store.Record, sync bool) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(r, sync); err != nil {
		s.metrics.journalError()
	}
}

// specJSON renders a normalized spec for a journal record.
func specJSON(spec JobSpec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	return b
}

// cacheGet is the tiered result lookup: memory LRU first, then the disk
// store (a disk hit re-populates the LRU — eviction only ever drops
// bytes from RAM, the disk copy is permanent).
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if b, ok := s.cache.Get(key); ok {
		return b, true
	}
	if s.store == nil {
		return nil, false
	}
	b, ok, err := s.store.Get(key)
	if err != nil {
		s.metrics.journalError()
		return nil, false
	}
	if !ok {
		return nil, false
	}
	s.cache.Put(key, b)
	return b, true
}

// cachePut writes through: disk first (so a crash after the put still
// has the bytes), then the LRU.
func (s *Server) cachePut(key string, val []byte) {
	if s.store != nil {
		if err := s.store.Put(key, val); err != nil {
			s.metrics.journalError()
		}
	}
	s.cache.Put(key, val)
}

// StoreResult lands externally produced result bytes in the tiered
// cache (disk store first, then the LRU). It implements the cluster
// package's ResultSink: a coordinator that learns a claim's outcome —
// from a worker's report or from peer replication — stores the bytes
// here so it can serve GET /results/{key} itself. Safe for any caller
// because keys are content-addressed: equal key, equal bytes.
func (s *Server) StoreResult(key string, result []byte) error {
	if !store.ValidKey(key) {
		return fmt.Errorf("invalid result key %q", key)
	}
	s.cachePut(key, result)
	return nil
}

// LoadResult is the read side of the same seam (the cluster package's
// ResultSource): a coordinator restarting over a claims journal asks
// the tiered cache for the payloads its replayed done entries lost.
func (s *Server) LoadResult(key string) ([]byte, bool) {
	if !store.ValidKey(key) {
		return nil, false
	}
	return s.cacheGet(key)
}

// closePersistence compacts and closes the journal on shutdown. After a
// clean drain every job is terminal, so the compacted journal replays
// with zero requeues.
func (s *Server) closePersistence() {
	if s.journal == nil {
		return
	}
	if err := s.journal.Compact(); err != nil {
		s.metrics.journalError()
	}
	if err := s.journal.Close(); err != nil {
		s.metrics.journalError()
	}
}

// durabilityStats snapshots the journal/store gauges for /metrics.
func (s *Server) durabilityStats() durabilityStats {
	var d durabilityStats
	if s.journal != nil {
		d.JournalBytes = s.journal.Size()
	}
	if s.store != nil {
		d.StoreHits, d.StoreMisses = s.store.Stats()
	}
	return d
}

// handleReady is the readiness probe: 200 only after journal replay
// finished and while the server is accepting work. Liveness stays on
// /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("replaying journal"))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	resp := map[string]any{"status": "ready"}
	// A coordinator is still ready with zero workers — it executes jobs
	// locally — but the degraded flag tells operators the fleet is gone
	// (or a peer coordinator has stopped taking replication).
	if cs := s.clusterStats(); cs != nil {
		resp["degraded"] = cs.Degraded
		resp["role"] = cs.Role
		if cs.Peers != nil {
			resp["peers"] = cs.Peers
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResultByKey serves a result straight from the content-addressed
// store (memory or disk). This is the resume path: a client that
// remembers its cache key can pick its result up after a server restart
// without resubmitting.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed result key"))
		return
	}
	b, ok := s.cacheGet(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no result for key %s", key))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// RecoveryStats reports how many jobs the startup replay rehydrated in a
// terminal state and how many it requeued (exported for the daemon's
// startup log and the smoke tool; the same numbers are in /metrics).
func (s *Server) RecoveryStats() (recovered, requeued uint64) {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.recovered, s.metrics.requeued
}
