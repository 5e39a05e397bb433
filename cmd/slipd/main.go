// Command slipd serves the slipstream simulator over HTTP: submit jobs
// with POST /jobs, poll GET /jobs/{id}, stream progress from
// /jobs/{id}/events, fetch rendered tables from /jobs/{id}/result, and
// scrape /metrics. Identical submissions coalesce onto one run and
// completed results are served from a content-addressed cache — the
// simulator is deterministic, so equal specs have equal results.
//
// With -data-dir (the default), every job transition is recorded in a
// write-ahead journal and every result is persisted to a disk-backed
// content-addressed store, so a crash (SIGKILL, power loss) loses no
// completed results and requeues whatever was in flight on the next
// start. Pass -no-persist for the old memory-only behaviour.
//
// Fleet mode: -coordinator turns a slipd into a fleet front door — it
// keeps the client-facing API and enqueues each job in a claim table
// that workers (-worker -join <coordinator-urls>) pull from under
// leases: a worker long-polls POST /cluster/claims, renews its lease
// while running, and reports the terminal result; if the worker dies
// the lease expires and any other worker reclaims the job. Coordinators
// peered with -join-coordinator replicate the claim table to each other
// leader-lessly, so any one of them can be SIGKILLed without stranding
// work — a survivor's lease sweep reclaims in-flight jobs and serves
// the byte-identical result. Each peer link runs behind a circuit
// breaker that opens after 5 consecutive failed pushes and probes again
// after 10 sync intervals. A coordinator sees a worker while it has
// polled, renewed or reported within one claim lease, or holds an
// unexpired lease in that coordinator's table; with no worker in sight
// it executes jobs locally and sets "degraded":true on /readyz.
//
// SIGINT/SIGTERM drains gracefully: in-flight and queued jobs finish
// (up to -drain), held claims report before the claim loop stops, the
// journal is flushed and compacted, then the process exits 0. See
// docs/api.md.
//
// Examples:
//
//	slipd -addr :8080 -workers 2 -data-dir /var/lib/slipd
//	slipd -addr :8080 -coordinator -join-coordinator http://host2:8080
//	slipd -addr :8081 -worker -join http://host1:8080,http://host2:8080 -data-dir w1
//	curl -s localhost:8080/jobs -d '{"kind":"run","kernel":"CG"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 2, "concurrent jobs")
		suiteJobs   = flag.Int("suite-jobs", 0, "per-job matrix concurrency (0 = one per CPU)")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (<=0 disables)")
		queueDepth  = flag.Int("queue-depth", 256, "max queued jobs before POST /jobs sheds load")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job execution wall-clock limit (0 = none)")
		drain       = flag.Duration("drain", 5*time.Minute, "graceful-shutdown deadline for in-flight jobs")
		dataDir     = flag.String("data-dir", "slipd-data", "directory for the job journal and result store")
		maxAttempts = flag.Int("max-attempts", 3, "crash-recovery retry budget per job (also bounds claim leases per job: the first claim plus expiry reclaims)")
		noPersist   = flag.Bool("no-persist", false, "disable the journal and disk result store (memory only)")

		coordinator = flag.Bool("coordinator", false, "run as fleet coordinator: serve the claim table workers pull from")
		workerMode  = flag.Bool("worker", false, "run as fleet worker: claim and execute jobs from coordinators")
		join        = flag.String("join", "", "comma-separated coordinator base URLs a -worker claims from")
		joinCoord   = flag.String("join-coordinator", "", "comma-separated peer coordinator base URLs to replicate the claim table with")
		workerID    = flag.String("worker-id", "", "stable worker identity (default: host:port of -addr)")
		syncEvery   = flag.Duration("sync-interval", time.Second, "coordinator: cadence of the lease sweep, replication pushes and dispatch watchdog")
		claimLease  = flag.Duration("claim-lease", 10*time.Second, "coordinator: claim lease duration; an unrenewed lease this old is reclaimed, and a worker silent this long is no longer counted")
		claimPoll   = flag.Duration("claim-poll", 2*time.Second, "long-poll hold for POST /cluster/claims (coordinator cap and worker request)")

		tenantWeight  = flag.Int("tenant-weight", 0, "default fair-queueing weight for tenants not named by -tenant (0 = 1)")
		tenantRate    = flag.Float64("tenant-rate", 0, "default per-tenant admission rate in jobs/sec (0 = unlimited)")
		tenantBurst   = flag.Float64("tenant-burst", 0, "default per-tenant admission burst (0 = max(rate, 1))")
		tenantBacklog = flag.Int("tenant-backlog", 0, "default per-tenant queued-job bound; overflow is refused 429 (0 = unlimited)")
	)
	var tenants []server.TenantConfig
	flag.Func("tenant", "declare a tenant as name:key[:weight[:rate[:burst[:backlog]]]] (repeatable); requests presenting the API key queue as this tenant", func(s string) error {
		tc, err := parseTenant(s)
		if err != nil {
			return err
		}
		tenants = append(tenants, tc)
		return nil
	})
	flag.Parse()
	if *noPersist {
		*dataDir = ""
	}
	if *coordinator && *workerMode {
		fmt.Fprintln(os.Stderr, "slipd: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	}
	if *workerMode && *join == "" {
		fmt.Fprintln(os.Stderr, "slipd: -worker requires -join <coordinator-urls>")
		os.Exit(2)
	}
	if *joinCoord != "" && !*coordinator {
		fmt.Fprintln(os.Stderr, "slipd: -join-coordinator requires -coordinator")
		os.Exit(2)
	}
	cfg := server.Config{
		CacheBytes:  *cacheBytes,
		Workers:     *workers,
		SuiteJobs:   *suiteJobs,
		QueueDepth:  *queueDepth,
		JobTimeout:  *jobTimeout,
		DataDir:     *dataDir,
		MaxAttempts: *maxAttempts,
		Tenants:     tenants,
		TenantDefaults: server.TenantLimits{
			Weight:  *tenantWeight,
			Rate:    *tenantRate,
			Burst:   *tenantBurst,
			Backlog: *tenantBacklog,
		},
	}
	fleet := fleetConfig{
		coordinator: *coordinator,
		worker:      *workerMode,
		join:        splitURLs(*join),
		peers:       splitURLs(*joinCoord),
		workerID:    *workerID,
		sync:        *syncEvery,
		lease:       *claimLease,
		poll:        *claimPoll,
	}
	if err := run(*addr, cfg, fleet, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "slipd:", err)
		os.Exit(1)
	}
}

// fleetConfig carries the -coordinator/-worker wiring options.
type fleetConfig struct {
	coordinator bool
	worker      bool
	join        []string
	peers       []string
	workerID    string
	sync        time.Duration
	lease       time.Duration
	poll        time.Duration
}

// parseTenant parses one -tenant value: name:key[:weight[:rate[:burst[:backlog]]]].
// An omitted or empty numeric field is zero, and so is an explicit 0:
// weight 1, unlimited rate and backlog, burst max(rate, 1). Every other
// value must parse whole and be non-negative; rate and burst must also
// be finite.
func parseTenant(s string) (server.TenantConfig, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 6 {
		return server.TenantConfig{}, fmt.Errorf("tenant %q: want name:key[:weight[:rate[:burst[:backlog]]]]", s)
	}
	tc := server.TenantConfig{Name: strings.TrimSpace(parts[0]), Key: strings.TrimSpace(parts[1])}
	if tc.Name == "" {
		return server.TenantConfig{}, fmt.Errorf("tenant %q: empty name", s)
	}
	if tc.Key == "" && tc.Name != server.DefaultTenant {
		return server.TenantConfig{}, fmt.Errorf("tenant %q: empty API key (only %q may omit it)", s, server.DefaultTenant)
	}
	for i, field := range parts[2:] {
		if field == "" {
			continue
		}
		var err error
		switch i {
		case 0:
			tc.Weight, err = parseCount(field)
		case 1:
			tc.Rate, err = parseFinite(field)
		case 2:
			tc.Burst, err = parseFinite(field)
		case 3:
			tc.Backlog, err = parseCount(field)
		}
		if err != nil {
			name := [...]string{"weight", "rate", "burst", "backlog"}[i]
			return server.TenantConfig{}, fmt.Errorf("tenant %q: bad %s %q: %v", s, name, field, err)
		}
	}
	return tc, nil
}

// parseCount parses a whole non-negative decimal integer.
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	switch {
	case err != nil:
		return 0, errors.New("not an integer")
	case n < 0:
		return 0, errors.New("negative")
	}
	return n, nil
}

// parseFinite parses a whole non-negative finite number.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil && !errors.Is(err, strconv.ErrRange):
		return 0, errors.New("not a number")
	case math.IsNaN(f) || math.IsInf(f, 0):
		return 0, errors.New("not finite")
	case f < 0:
		return 0, errors.New("negative")
	}
	return f, nil
}

// splitURLs parses a comma-separated URL list, trimming blanks and
// trailing slashes.
func splitURLs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// selfURL turns a listen address like ":8081" into a URL other fleet
// members on the same host can reach.
func selfURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

func run(addr string, cfg server.Config, fleet fleetConfig, drain time.Duration) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "slipd: "+format+"\n", args...)
	}

	var co *cluster.Coordinator
	if fleet.coordinator {
		ccfg := cluster.Config{
			SyncInterval:  fleet.sync,
			LeaseDuration: fleet.lease,
			ClaimWait:     fleet.poll,
			MaxAttempts:   cfg.MaxAttempts,
			Peers:         fleet.peers,
			SelfID:        selfURL(addr),
			Logf:          logf,
		}
		if cfg.DataDir != "" {
			// The claim table gets its own journal beside the server's: a
			// restarted coordinator resumes its leases instead of stranding
			// in-flight claims until peers notice.
			jn, recs, err := store.Open(filepath.Join(cfg.DataDir, "claims"), 0)
			if err != nil {
				return fmt.Errorf("open claims journal: %w", err)
			}
			jn.SetLogf(logf)
			ccfg.Journal = jn
			ccfg.Replay = recs
		}
		co = cluster.NewCoordinator(ccfg)
		defer co.Close()
		cfg.Cluster = co
	}

	srv, err := server.Open(cfg)
	if err != nil {
		return err
	}
	if co != nil {
		// Settled claims land in the server's content-addressed cache, so
		// this coordinator serves GET /results/{key} for results produced
		// anywhere in the fleet — including claims it only learned about
		// through peer replication.
		co.AttachResults(srv)
	}

	mux := http.NewServeMux()
	if co != nil {
		mux.Handle("/cluster/", co.Handler())
	}
	mux.Handle("/", srv.Handler())
	httpSrv := &http.Server{Addr: addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	fmt.Fprintf(os.Stderr, "slipd: listening on %s (%d workers, %d MiB cache)\n",
		addr, cfg.Workers, cfg.CacheBytes>>20)
	if cfg.DataDir == "" {
		fmt.Fprintln(os.Stderr, "slipd: persistence disabled (memory only)")
	} else {
		recovered, requeued := srv.RecoveryStats()
		fmt.Fprintf(os.Stderr, "slipd: journal replayed from %s (%d jobs recovered, %d requeued)\n",
			cfg.DataDir, recovered, requeued)
	}
	if co != nil {
		if len(fleet.peers) > 0 {
			fmt.Fprintf(os.Stderr, "slipd: coordinator mode — replicating claims with %s\n", strings.Join(fleet.peers, ", "))
		} else {
			fmt.Fprintln(os.Stderr, "slipd: coordinator mode — waiting for workers to claim at /cluster/claims")
		}
	}

	var claimer *cluster.Claimer
	if fleet.worker {
		id := fleet.workerID
		if id == "" {
			id = strings.TrimPrefix(selfURL(addr), "http://")
		}
		claimer, err = cluster.StartClaimer(cluster.ClaimerConfig{
			Coordinators: fleet.join,
			ID:           id,
			Slots:        cfg.Workers,
			PollWait:     fleet.poll,
			KeyFor:       srv.CacheKeyFor,
			Run: func(ctx context.Context, spec []byte) ([]byte, error) {
				view, _, err := srv.SubmitJSON(spec)
				if err != nil {
					if errors.Is(err, server.ErrQueueFull) || errors.Is(err, server.ErrDraining) {
						// Transient local refusal: abandon without a report so
						// the lease expires instead of burning an attempt.
						return nil, fmt.Errorf("%w: %v", cluster.ErrClaimAbandoned, err)
					}
					return nil, err
				}
				return srv.Await(ctx, view.ID)
			},
			Logf: logf,
		})
		if err != nil {
			httpSrv.Close()
			return fmt.Errorf("join fleet: %w", err)
		}
		fmt.Fprintf(os.Stderr, "slipd: worker mode — claiming from %s as %s\n", strings.Join(fleet.join, ", "), id)
	}

	stopFleet := func() {
		// Stop lets held claims finish and report, so a clean shutdown
		// leaves no lease behind to expire.
		if claimer != nil {
			claimer.Stop()
		}
	}

	select {
	case err := <-errCh:
		stopFleet()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	// Leave the fleet first so no new claims are granted to this worker
	// while it drains.
	stopFleet()

	fmt.Fprintf(os.Stderr, "slipd: draining (deadline %s)\n", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Stop the listener first so no new jobs arrive mid-drain, then let
	// the job queue empty. A clean drain exits 0; a blown deadline
	// cancels the remaining work and reports it.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		srv.Shutdown(drainCtx)
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "slipd: drained cleanly")
	return nil
}
