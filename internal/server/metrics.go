package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Live metrics in the Prometheus text exposition format, hand-rolled so
// the repository stays dependency-free. Everything is exported under the
// slipd_ prefix: job state gauges (counted from the job table at scrape
// time), queue depth, run counters, cache counters/ratio, and per-label
// host-side run latency histograms (the label is the kernel for single
// runs and the suite kind otherwise).

// latencyBuckets are the histogram upper bounds in seconds. Simulated
// kernels at test scale finish in milliseconds; paper-scale suites take
// minutes — the buckets cover both ends.
var latencyBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

type histogram struct {
	counts []uint64 // one per bucket, plus +Inf at the end
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBuckets)+1)
	}
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

type metrics struct {
	mu sync.Mutex

	submitted   uint64 // POST /jobs accepted
	deduped     uint64 // submissions coalesced onto an in-flight job
	runs        uint64 // underlying simulation executions started
	shed        uint64 // submissions 503'd because the queue was full
	panics      uint64 // worker panics recovered (job failed, worker lived)
	timeouts    uint64 // jobs failed by the per-job timeout
	faultsInj   uint64 // faults injected by fault-plan runs
	recoveries  uint64 // divergence recoveries observed in fault-plan runs
	recovered   uint64 // jobs rehydrated from the journal in a terminal state
	requeued    uint64 // crash-interrupted jobs put back on the queue at startup
	retries     uint64 // executions of a job beyond its first attempt
	journalErrs uint64 // journal/store writes that failed (durability degraded)
	localFalls  uint64 // jobs a coordinator executed locally for want of workers
	latency     map[string]*histogram
}

func newMetrics() *metrics {
	return &metrics{latency: map[string]*histogram{}}
}

// jobSubmitted records a submission that registered a new job.
func (m *metrics) jobSubmitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
}

// dedupHit records a submission answered by an already in-flight job.
func (m *metrics) dedupHit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deduped++
}

// runStarted records one underlying simulation execution.
func (m *metrics) runStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs++
}

// runsTotal reads the execution counter (used by the single-flight test).
func (m *metrics) runsTotal() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// requestShed records a submission rejected because the queue was full.
func (m *metrics) requestShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed++
}

// panicked records a worker panic that was recovered.
func (m *metrics) panicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// timedOut records a job failed by the per-job timeout.
func (m *metrics) timedOut() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timeouts++
}

// jobRestored records a job rehydrated at startup, requeued or terminal
// (unlike jobSubmitted: the job was counted by the process that first
// accepted it).
func (m *metrics) jobRestored(requeue bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if requeue {
		m.requeued++
	} else {
		m.recovered++
	}
}

// retried records an execution of a job beyond its first attempt.
func (m *metrics) retried() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retries++
}

// journalError records a failed journal or result-store write. The
// daemon keeps serving from memory; durability is degraded, not lost —
// at worst the next restart re-executes work.
func (m *metrics) journalError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journalErrs++
}

// localFallback records a job a coordinator ran in-process because no
// worker could take it (the degraded path).
func (m *metrics) localFallback() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.localFalls++
}

// addFaults accumulates a fault-plan run's injected-fault and recovery
// counts.
func (m *metrics) addFaults(injected, recovered uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faultsInj += injected
	m.recoveries += recovered
}

// observeLatency records a completed run's host wall-clock under a label.
func (m *metrics) observeLatency(label string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[label]
	if !ok {
		h = &histogram{}
		m.latency[label] = h
	}
	h.observe(d.Seconds())
}

// durabilityStats carries the point-in-time durability gauges into the
// exposition: journal size and disk-store lookup counters (all zero when
// the daemon runs without a data dir).
type durabilityStats struct {
	JournalBytes int64
	StoreHits    uint64
	StoreMisses  uint64
}

// write renders the exposition. Series are emitted in sorted order so the
// output is deterministic and diffable.
func (m *metrics) write(w io.Writer, jobs map[State]int, queueDepth int, cache CacheStats, dur durabilityStats, cluster *ClusterStats, tenants []tenantStat, campaigns []CampaignView) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP slipd_jobs_submitted_total Jobs accepted via POST /jobs.")
	fmt.Fprintln(w, "# TYPE slipd_jobs_submitted_total counter")
	fmt.Fprintf(w, "slipd_jobs_submitted_total %d\n", m.submitted)

	fmt.Fprintln(w, "# HELP slipd_jobs_deduplicated_total Submissions coalesced onto an in-flight identical job.")
	fmt.Fprintln(w, "# TYPE slipd_jobs_deduplicated_total counter")
	fmt.Fprintf(w, "slipd_jobs_deduplicated_total %d\n", m.deduped)

	fmt.Fprintln(w, "# HELP slipd_runs_total Underlying simulation executions (cache misses that ran).")
	fmt.Fprintln(w, "# TYPE slipd_runs_total counter")
	fmt.Fprintf(w, "slipd_runs_total %d\n", m.runs)

	fmt.Fprintln(w, "# HELP slipd_requests_shed_total Submissions rejected 503 because the job queue was full.")
	fmt.Fprintln(w, "# TYPE slipd_requests_shed_total counter")
	fmt.Fprintf(w, "slipd_requests_shed_total %d\n", m.shed)

	fmt.Fprintln(w, "# HELP slipd_panics_total Worker panics recovered (the job failed; the worker survived).")
	fmt.Fprintln(w, "# TYPE slipd_panics_total counter")
	fmt.Fprintf(w, "slipd_panics_total %d\n", m.panics)

	fmt.Fprintln(w, "# HELP slipd_timeouts_total Jobs failed by the per-job timeout.")
	fmt.Fprintln(w, "# TYPE slipd_timeouts_total counter")
	fmt.Fprintf(w, "slipd_timeouts_total %d\n", m.timeouts)

	fmt.Fprintln(w, "# HELP slipd_faults_injected_total Faults injected by fault-plan and chaos runs.")
	fmt.Fprintln(w, "# TYPE slipd_faults_injected_total counter")
	fmt.Fprintf(w, "slipd_faults_injected_total %d\n", m.faultsInj)

	fmt.Fprintln(w, "# HELP slipd_recoveries_total Slipstream divergence recoveries observed in fault-plan and chaos runs.")
	fmt.Fprintln(w, "# TYPE slipd_recoveries_total counter")
	fmt.Fprintf(w, "slipd_recoveries_total %d\n", m.recoveries)

	fmt.Fprintln(w, "# HELP slipd_jobs_recovered_total Jobs rehydrated from the journal in a terminal state at startup.")
	fmt.Fprintln(w, "# TYPE slipd_jobs_recovered_total counter")
	fmt.Fprintf(w, "slipd_jobs_recovered_total %d\n", m.recovered)

	fmt.Fprintln(w, "# HELP slipd_jobs_requeued_total Crash-interrupted jobs put back on the queue at startup.")
	fmt.Fprintln(w, "# TYPE slipd_jobs_requeued_total counter")
	fmt.Fprintf(w, "slipd_jobs_requeued_total %d\n", m.requeued)

	fmt.Fprintln(w, "# HELP slipd_retries_total Executions of a job beyond its first attempt.")
	fmt.Fprintln(w, "# TYPE slipd_retries_total counter")
	fmt.Fprintf(w, "slipd_retries_total %d\n", m.retries)

	fmt.Fprintln(w, "# HELP slipd_journal_errors_total Failed journal or result-store writes (durability degraded).")
	fmt.Fprintln(w, "# TYPE slipd_journal_errors_total counter")
	fmt.Fprintf(w, "slipd_journal_errors_total %d\n", m.journalErrs)

	fmt.Fprintln(w, "# HELP slipd_journal_bytes On-disk size of the write-ahead job journal.")
	fmt.Fprintln(w, "# TYPE slipd_journal_bytes gauge")
	fmt.Fprintf(w, "slipd_journal_bytes %d\n", dur.JournalBytes)

	fmt.Fprintln(w, "# HELP slipd_store_hits_total Disk result-store hits (reads served without a run).")
	fmt.Fprintln(w, "# TYPE slipd_store_hits_total counter")
	fmt.Fprintf(w, "slipd_store_hits_total %d\n", dur.StoreHits)

	fmt.Fprintln(w, "# HELP slipd_store_misses_total Disk result-store misses.")
	fmt.Fprintln(w, "# TYPE slipd_store_misses_total counter")
	fmt.Fprintf(w, "slipd_store_misses_total %d\n", dur.StoreMisses)

	// Cluster series appear only on a coordinator; a plain slipd has no
	// fleet to report on.
	if cluster != nil {
		fmt.Fprintln(w, "# HELP slipd_workers Fleet workers visible to this coordinator: seen polling, renewing or reporting within one claim lease, or holding an unexpired lease.")
		fmt.Fprintln(w, "# TYPE slipd_workers gauge")
		fmt.Fprintf(w, "slipd_workers %d\n", cluster.Workers)

		fmt.Fprintln(w, "# HELP slipd_claims_total Claim-table outcomes: leases granted, claims settled done/failed, duplicate terminal reports discarded.")
		fmt.Fprintln(w, "# TYPE slipd_claims_total counter")
		fmt.Fprintf(w, "slipd_claims_total{outcome=\"granted\"} %d\n", cluster.ClaimsGranted)
		fmt.Fprintf(w, "slipd_claims_total{outcome=\"done\"} %d\n", cluster.ClaimsCompleted)
		fmt.Fprintf(w, "slipd_claims_total{outcome=\"failed\"} %d\n", cluster.ClaimsFailed)
		fmt.Fprintf(w, "slipd_claims_total{outcome=\"duplicate\"} %d\n", cluster.ClaimsDuplicate)

		fmt.Fprintln(w, "# HELP slipd_lease_expirations_total Claim leases that expired and went back to pending for reclaim.")
		fmt.Fprintln(w, "# TYPE slipd_lease_expirations_total counter")
		fmt.Fprintf(w, "slipd_lease_expirations_total %d\n", cluster.LeaseExpirations)

		fmt.Fprintln(w, "# HELP slipd_local_fallbacks_total Jobs the coordinator executed in-process because no worker could take them.")
		fmt.Fprintln(w, "# TYPE slipd_local_fallbacks_total counter")
		fmt.Fprintf(w, "slipd_local_fallbacks_total %d\n", m.localFalls)
	}

	fmt.Fprintln(w, "# HELP slipd_jobs Jobs currently in each state.")
	fmt.Fprintln(w, "# TYPE slipd_jobs gauge")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
		fmt.Fprintf(w, "slipd_jobs{state=%q} %d\n", st, jobs[st])
	}

	fmt.Fprintln(w, "# HELP slipd_queue_depth Jobs waiting for a worker.")
	fmt.Fprintln(w, "# TYPE slipd_queue_depth gauge")
	fmt.Fprintf(w, "slipd_queue_depth %d\n", queueDepth)

	fmt.Fprintln(w, "# HELP slipd_cache_hits_total Result cache hits.")
	fmt.Fprintln(w, "# TYPE slipd_cache_hits_total counter")
	fmt.Fprintf(w, "slipd_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintln(w, "# HELP slipd_cache_misses_total Result cache misses.")
	fmt.Fprintln(w, "# TYPE slipd_cache_misses_total counter")
	fmt.Fprintf(w, "slipd_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintln(w, "# HELP slipd_cache_evictions_total Entries evicted to hold the byte budget.")
	fmt.Fprintln(w, "# TYPE slipd_cache_evictions_total counter")
	fmt.Fprintf(w, "slipd_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintln(w, "# HELP slipd_cache_bytes Bytes currently cached.")
	fmt.Fprintln(w, "# TYPE slipd_cache_bytes gauge")
	fmt.Fprintf(w, "slipd_cache_bytes %d\n", cache.Bytes)
	fmt.Fprintln(w, "# HELP slipd_cache_entries Entries currently cached.")
	fmt.Fprintln(w, "# TYPE slipd_cache_entries gauge")
	fmt.Fprintf(w, "slipd_cache_entries %d\n", cache.Entries)
	fmt.Fprintln(w, "# HELP slipd_cache_hit_ratio Hits over lookups since start.")
	fmt.Fprintln(w, "# TYPE slipd_cache_hit_ratio gauge")
	fmt.Fprintf(w, "slipd_cache_hit_ratio %.4f\n", cache.HitRatio())

	// Tenant series: admission-control outcomes and fair-queue state per
	// tenant. The scheduler hands them over pre-sorted by tenant name.
	if len(tenants) > 0 {
		fmt.Fprintln(w, "# HELP slipd_tenant_weight Weighted-fair-queueing weight per tenant.")
		fmt.Fprintln(w, "# TYPE slipd_tenant_weight gauge")
		for _, t := range tenants {
			fmt.Fprintf(w, "slipd_tenant_weight{tenant=%q} %d\n", t.Name, t.Weight)
		}
		fmt.Fprintln(w, "# HELP slipd_tenant_queued Jobs a tenant currently has waiting in the fair queue.")
		fmt.Fprintln(w, "# TYPE slipd_tenant_queued gauge")
		for _, t := range tenants {
			fmt.Fprintf(w, "slipd_tenant_queued{tenant=%q} %d\n", t.Name, t.Queued)
		}
		fmt.Fprintln(w, "# HELP slipd_tenant_admitted_total Submissions admitted past a tenant's token bucket and backlog bound.")
		fmt.Fprintln(w, "# TYPE slipd_tenant_admitted_total counter")
		for _, t := range tenants {
			fmt.Fprintf(w, "slipd_tenant_admitted_total{tenant=%q} %d\n", t.Name, t.Admitted)
		}
		fmt.Fprintln(w, "# HELP slipd_tenant_limited_total Submissions refused 429 per tenant, by admission check.")
		fmt.Fprintln(w, "# TYPE slipd_tenant_limited_total counter")
		for _, t := range tenants {
			fmt.Fprintf(w, "slipd_tenant_limited_total{tenant=%q,reason=\"rate\"} %d\n", t.Name, t.LimitedRate)
			fmt.Fprintf(w, "slipd_tenant_limited_total{tenant=%q,reason=\"backlog\"} %d\n", t.Name, t.LimitedBacklog)
		}
		fmt.Fprintln(w, "# HELP slipd_tenant_dispatched_total Jobs handed to workers per tenant by the fair scheduler.")
		fmt.Fprintln(w, "# TYPE slipd_tenant_dispatched_total counter")
		for _, t := range tenants {
			fmt.Fprintf(w, "slipd_tenant_dispatched_total{tenant=%q} %d\n", t.Name, t.Dispatched)
		}
	}

	// Campaign series: DAG totals by state, cell outcomes, and the
	// per-campaign cache-collapse ratio.
	if len(campaigns) > 0 {
		byState := map[string]int{}
		var cellsDone, cellsFailed, cellsSkipped, cellsCollapsed int
		for _, c := range campaigns {
			byState[c.State]++
			cellsDone += c.DoneCells
			cellsFailed += c.FailedCells
			cellsSkipped += c.SkippedCells
			cellsCollapsed += c.CollapsedCells
		}
		fmt.Fprintln(w, "# HELP slipd_campaigns Campaigns by state.")
		fmt.Fprintln(w, "# TYPE slipd_campaigns gauge")
		for _, st := range []string{campaignRunning, campaignDone, campaignFailed, campaignCancelled} {
			fmt.Fprintf(w, "slipd_campaigns{state=%q} %d\n", st, byState[st])
		}
		fmt.Fprintln(w, "# HELP slipd_campaign_cells_total Campaign cells settled, by outcome (collapsed counts done cells served by cache or dedup).")
		fmt.Fprintln(w, "# TYPE slipd_campaign_cells_total counter")
		fmt.Fprintf(w, "slipd_campaign_cells_total{outcome=\"done\"} %d\n", cellsDone)
		fmt.Fprintf(w, "slipd_campaign_cells_total{outcome=\"failed\"} %d\n", cellsFailed)
		fmt.Fprintf(w, "slipd_campaign_cells_total{outcome=\"skipped\"} %d\n", cellsSkipped)
		fmt.Fprintf(w, "slipd_campaign_cells_total{outcome=\"collapsed\"} %d\n", cellsCollapsed)
		fmt.Fprintln(w, "# HELP slipd_campaign_cache_collapse_ratio Fraction of a campaign's cells served without a fresh run.")
		fmt.Fprintln(w, "# TYPE slipd_campaign_cache_collapse_ratio gauge")
		for _, c := range campaigns {
			fmt.Fprintf(w, "slipd_campaign_cache_collapse_ratio{campaign=%q} %.4f\n", c.ID, c.CacheCollapseRatio)
		}
	}

	fmt.Fprintln(w, "# HELP slipd_run_seconds Host wall-clock of completed runs by kernel or suite kind.")
	fmt.Fprintln(w, "# TYPE slipd_run_seconds histogram")
	labels := make([]string, 0, len(m.latency))
	for l := range m.latency {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		h := m.latency[l]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "slipd_run_seconds_bucket{job=%q,le=%q} %d\n", l, formatLE(le), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "slipd_run_seconds_bucket{job=%q,le=\"+Inf\"} %d\n", l, cum)
		fmt.Fprintf(w, "slipd_run_seconds_sum{job=%q} %g\n", l, h.sum)
		fmt.Fprintf(w, "slipd_run_seconds_count{job=%q} %d\n", l, h.total)
	}
}

// formatLE renders a bucket bound the way Prometheus expects (no
// scientific notation, no trailing zeros).
func formatLE(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
