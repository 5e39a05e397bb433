package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// Config tunes a Coordinator. Zero values take the documented defaults.
type Config struct {
	// SyncInterval is the cadence of the lease sweep, the replication
	// pushes and the dispatch watchdog (default 1s).
	SyncInterval time.Duration
	// LeaseDuration is how long a claim grant lives without a renewal
	// (default 10s). Workers renew at a third of this. It is also the
	// visibility window: a worker not seen for longer is not counted.
	LeaseDuration time.Duration
	// ClaimWait caps how long POST /cluster/claims holds a long-poll open
	// (default 2s). Workers may ask for less, never more.
	ClaimWait time.Duration
	// MaxAttempts bounds how many leases a single job may be granted:
	// the first claim plus expiry reclaims (default 3). Determinism makes
	// every extra copy safe; the budget just bounds the work.
	MaxAttempts int
	// Peers are the other coordinators' base URLs. The claim table is
	// replicated to each of them every sync interval (and on every
	// mutation), leader-lessly.
	Peers []string
	// BreakerFailures is how many consecutive replication failures open a
	// peer's circuit breaker (default 5). While open, pushes to that peer
	// are skipped until BreakerCooldown elapses; the first push after the
	// cooldown is a half-open probe whose outcome closes or re-opens it.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker waits before probing
	// (default 10× the sync interval).
	BreakerCooldown time.Duration
	// DisableMergeTerminalWins turns off the incoming-terminal-settles
	// precedence rule in the claim-table merge. It exists solely so the
	// simulation harness can prove its invariant checker catches a broken
	// merge; never set it in production.
	DisableMergeTerminalWins bool
	// SelfID labels this coordinator in replication batches and logs
	// (default "coordinator").
	SelfID string
	// Journal, when set, persists every claim-table transition so a
	// restarted coordinator resumes its leases; Replay seeds the table
	// from a previous run's journal. The coordinator owns the journal
	// once handed over and closes it in Close.
	Journal *store.Journal
	Replay  []store.Record
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Now is the clock (default time.Now); tests inject a fake to drive
	// lease expiry and worker visibility without waiting.
	Now func() time.Time
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SyncInterval <= 0 {
		c.SyncInterval = time.Second
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 10 * time.Second
	}
	if c.ClaimWait <= 0 {
		c.ClaimWait = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * c.SyncInterval
	}
	if c.SelfID == "" {
		c.SelfID = "coordinator"
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Coordinator serves the claim table: it answers the /cluster/* API
// (including the claim endpoints workers long-poll), replicates claim
// state to peer coordinators, and implements server.Cluster so a slipd
// server can plug it in as its dispatch backend.
type Coordinator struct {
	cfg   Config
	table *ClaimTable
	peers []*peerLink

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a Coordinator, seeds the claim table from
// cfg.Replay, and starts the sweep and replication loops. Close it when
// done.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:   cfg,
		table: newClaimTable(cfg.Now, cfg.LeaseDuration, cfg.MaxAttempts),
		quit:  make(chan struct{}),
	}
	if cfg.Journal != nil {
		co.table.journal = func(rec store.Record, sync bool) {
			if err := cfg.Journal.Append(rec, sync); err != nil {
				cfg.Logf("cluster: claims journal append: %v", err)
			}
		}
	}
	if len(cfg.Replay) > 0 {
		co.table.seed(cfg.Replay)
		cfg.Logf("cluster: restored %d claims from journal", len(co.table.Views()))
	}
	co.table.disableTerminalWins = cfg.DisableMergeTerminalWins
	for _, u := range cfg.Peers {
		co.peers = append(co.peers, &peerLink{url: u, failures: cfg.BreakerFailures, cooldown: cfg.BreakerCooldown})
	}
	if len(co.peers) > 0 {
		kick := make(chan struct{}, 1)
		co.table.onChange = func() {
			select {
			case kick <- struct{}{}:
			default:
			}
		}
		co.wg.Add(1)
		go co.replicateLoop(kick)
	}
	co.wg.Add(1)
	go co.sweepLoop()
	return co
}

// AttachResults plugs the coordinator's settled claims into a result
// sink (the server's content-addressed cache), so any coordinator that
// observes a terminal claim — from a worker's report or from peer
// replication — can serve the bytes itself. A sink that can also load
// results (ResultSource) additionally rehydrates done entries replayed
// from the claims journal, whose payloads live in the store rather than
// the journal.
func (co *Coordinator) AttachResults(sink ResultSink) {
	co.table.sink = sink
	if src, ok := sink.(ResultSource); ok {
		co.table.rehydrate(src)
	}
}

// Close stops the background loops and closes the claims journal.
func (co *Coordinator) Close() {
	close(co.quit)
	co.wg.Wait()
	if co.cfg.Journal != nil {
		if err := co.cfg.Journal.Close(); err != nil {
			co.cfg.Logf("cluster: claims journal close: %v", err)
		}
	}
}

func (co *Coordinator) sweepLoop() {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-co.quit:
			return
		case <-t.C:
			if n := co.table.SweepLeases(); n > 0 {
				co.cfg.Logf("cluster: %d lease(s) expired, claims back to pending", n)
			}
		}
	}
}

// Stats implements server.Cluster.
func (co *Coordinator) Stats() server.ClusterStats {
	workers := len(co.table.Workers())
	ctr := co.table.Counters()
	s := server.ClusterStats{
		Role:             "coordinator",
		Workers:          workers,
		ClaimsGranted:    ctr.Granted,
		ClaimsCompleted:  ctr.Done,
		ClaimsFailed:     ctr.Failed,
		ClaimsDuplicate:  ctr.Duplicate,
		LeaseExpirations: ctr.Expirations,
		Degraded:         workers == 0,
	}
	now := co.cfg.Now()
	for _, p := range co.peers {
		ps := p.status(now)
		if !ps.Reachable {
			s.Degraded = true
		}
		s.Peers = append(s.Peers, ps)
	}
	return s
}

// Handler serves the worker-facing cluster API:
//
//	POST /cluster/claims            — long-poll to claim a job under a lease
//	POST /cluster/claims/renew      — extend a held lease
//	POST /cluster/claims/report     — terminal report (result bytes or error)
//	POST /cluster/claims/replicate  — peer coordinator reconciliation
//	GET  /cluster/claims            — claim table view for operators and drills
//	GET  /cluster/workers           — visible workers for operators and drills
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/claims", func(w http.ResponseWriter, r *http.Request) {
		m, err := DecodeClaimRequest(r.Body)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		wait := time.Duration(m.WaitMs) * time.Millisecond
		if wait > co.cfg.ClaimWait {
			wait = co.cfg.ClaimWait
		}
		// One deadline timer for the whole poll: retry loops under a
		// wake storm used to allocate a fresh timer per iteration, which
		// shows up as timer churn with hundreds of parked claimers.
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for {
			// Fetch the wake channel before trying to claim: any grant-able
			// mutation after the attempt closes this channel, so no wakeup
			// can slip between the miss and the select.
			wake := co.table.wait()
			if g, ok := co.table.Claim(m.Worker); ok {
				writeClusterJSON(w, http.StatusOK, g)
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-timer.C:
				w.WriteHeader(http.StatusNoContent)
				return
			case <-wake:
			}
		}
	})
	mux.HandleFunc("POST /cluster/claims/renew", func(w http.ResponseWriter, r *http.Request) {
		m, err := DecodeClaimRenew(r.Body)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		writeClusterJSON(w, http.StatusOK, RenewAck{OK: co.table.Renew(m.Worker, m.Key, m.Attempt)})
	})
	mux.HandleFunc("POST /cluster/claims/report", func(w http.ResponseWriter, r *http.Request) {
		m, err := DecodeClaimReport(r.Body)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		accepted := co.table.Report(m.Worker, m.Key, m.State, m.Result, m.Error)
		if accepted {
			co.cfg.Logf("cluster: claim %s settled %s by worker %s (attempt %d)", m.Key[:12], m.State, m.Worker, m.Attempt)
		}
		writeClusterJSON(w, http.StatusOK, ReportAck{Accepted: accepted})
	})
	mux.HandleFunc("POST /cluster/claims/replicate", func(w http.ResponseWriter, r *http.Request) {
		m, err := DecodeReplicateBatch(r.Body)
		if err != nil {
			clusterError(w, http.StatusBadRequest, err)
			return
		}
		co.table.Merge(m.Records)
		writeClusterJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /cluster/claims", func(w http.ResponseWriter, r *http.Request) {
		writeClusterJSON(w, http.StatusOK, map[string]any{"claims": co.table.Views()})
	})
	mux.HandleFunc("GET /cluster/workers", func(w http.ResponseWriter, r *http.Request) {
		writeClusterJSON(w, http.StatusOK, map[string]any{
			"workers":  co.table.Workers(),
			"degraded": co.Stats().Degraded,
		})
	})
	return mux
}

// Dispatch implements server.Cluster: enqueue the job in the claim
// table and wait for a worker to claim and settle it. Liveness comes
// from leases — if the claiming worker dies, the lease expires and the
// next claimer re-executes; if this whole coordinator dies, a peer's
// copy of the claim serves the job to completion. Returns
// server.ErrNoWorkers when no worker is visible (the server then
// executes locally in degraded mode).
func (co *Coordinator) Dispatch(ctx context.Context, key, label, tenant string, priority int, spec server.JobSpec, progress io.Writer) ([]byte, error) {
	if len(co.table.Workers()) == 0 {
		return nil, server.ErrNoWorkers
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("marshal spec for claim: %w", err)
	}
	done := co.table.Enqueue(key, label, tenant, priority, specJSON)
	fmt.Fprintf(progress, "cluster: enqueued for claim (key %s…)\n", key[:12])

	// Watchdog: if every worker disappears while the claim is open, fall
	// back to local execution rather than waiting on a lease nobody will
	// ever take. The entry stays in the table; determinism makes a
	// late-returning worker's duplicate execution harmless.
	watch := time.NewTicker(co.cfg.SyncInterval)
	defer watch.Stop()

	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()

		case <-watch.C:
			if len(co.table.Workers()) == 0 {
				fmt.Fprintf(progress, "cluster: fleet lost mid-claim, falling back\n")
				return nil, server.ErrNoWorkers
			}

		case <-done:
			result, errMsg, ok := co.table.Result(key)
			if !ok {
				return nil, errors.New("claim settled but entry vanished")
			}
			if errMsg != "" {
				return nil, errors.New(errMsg)
			}
			return result, nil
		}
	}
}

// ClaimViews exports the live claim table, oldest first. The simulation
// harness's invariant monitor polls it; operators get the same data via
// GET /cluster/claims.
func (co *Coordinator) ClaimViews() []ClaimView {
	return co.table.Views()
}

// ClaimCounters exports the table's lifetime counters for harness
// assertions (grants, lease expirations, duplicate reports).
func (co *Coordinator) ClaimCounters() ClaimCounters {
	return co.table.Counters()
}

// writeClusterJSON / clusterError are the package's tiny response
// helpers (the server keeps its own unexported ones).
func writeClusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func clusterError(w http.ResponseWriter, status int, err error) {
	writeClusterJSON(w, status, map[string]string{"error": err.Error()})
}
