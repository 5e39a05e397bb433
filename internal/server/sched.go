package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Multi-tenant admission and dispatch. The old single FIFO channel let
// one greedy client starve everyone; this scheduler gives each tenant —
// identified by API key — a token-bucket admission rate, a bounded
// backlog, and a weighted-fair share of the workers. Overflowing a
// per-tenant limit answers 429 + Retry-After (the tenant's own
// problem); the global QueueDepth bound keeps the existing 503 shed
// path (the daemon's problem). Dispatch is strict-priority across two
// classes — interactive probes always preempt queued bulk work — and
// weighted-fair (virtual-time WFQ) across tenants within a class, so a
// flooding tenant degrades only itself.

// Priority classes. Interactive single-cell probes outrank bulk
// sweeps; within a class tenants share by WFQ weight.
const (
	PriorityBatch       = 0
	PriorityInteractive = 1
	numPriorities       = 2
)

// Priority class names as they appear in specs, journals, and wire
// messages.
const (
	PriorityNameBatch       = "batch"
	PriorityNameInteractive = "interactive"
)

// PriorityName renders a priority class for journals and wire messages.
func PriorityName(p int) string {
	if p >= PriorityInteractive {
		return PriorityNameInteractive
	}
	return PriorityNameBatch
}

// PriorityValue parses a priority class name leniently (unknown names
// queue as batch — the safe class for anything a newer peer invents).
func PriorityValue(name string) int {
	if name == PriorityNameInteractive {
		return PriorityInteractive
	}
	return PriorityBatch
}

// TenantLimits bounds one tenant's admission. Zero values mean
// unlimited rate, unlimited backlog, weight 1 — the pre-tenant
// behavior, so a daemon with no tenant flags schedules exactly as
// before (single default tenant, global bounds only).
type TenantLimits struct {
	// Weight is the tenant's WFQ share within a priority class
	// (default 1). A weight-2 tenant drains twice as fast as a
	// weight-1 tenant under contention.
	Weight int
	// Rate is the token-bucket refill in submissions per second
	// (0 = unlimited). Each accepted job costs one token; an empty
	// bucket answers 429 with the refill time as Retry-After.
	Rate float64
	// Burst caps the bucket (default max(Rate, 1)).
	Burst float64
	// Backlog bounds this tenant's queued-but-not-running jobs
	// (0 = unlimited up to the global QueueDepth). Overflow answers
	// 429 + Retry-After.
	Backlog int
}

// TenantConfig names a tenant and binds its API key.
type TenantConfig struct {
	Name string
	Key  string
	TenantLimits
}

// DefaultTenant is the tenant requests without a declared API key run
// under. Declaring a tenant of this name (with no key) sets its limits.
const DefaultTenant = "default"

// ErrTenantLimited marks a submission refused by the submitting
// tenant's own admission limits (rate or backlog). HTTP maps it to
// 429 + Retry-After — deliberately distinct from the global 503 shed
// path: a 429 means "you, specifically, slow down".
var ErrTenantLimited = errors.New("tenant admission limit reached")

// tenantLimitedError carries which limit tripped and the suggested
// retry delay alongside the ErrTenantLimited identity.
type tenantLimitedError struct {
	tenant     string
	reason     string // "rate" | "backlog"
	retryAfter time.Duration
}

func (e *tenantLimitedError) Error() string {
	return fmt.Sprintf("tenant %q %s limit reached (retry in %s)", e.tenant, e.reason, e.retryAfter)
}
func (e *tenantLimitedError) Unwrap() error { return ErrTenantLimited }

// retryAfterSeconds renders a delay as a Retry-After header value
// (whole seconds, minimum 1).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// tenant is one admission domain: per-class FIFO queues, a token
// bucket, and a WFQ virtual finish time. All fields are guarded by the
// scheduler's mutex.
type tenant struct {
	name   string
	limits TenantLimits

	queues [numPriorities][]*Job
	queued int

	vtime  float64 // WFQ virtual finish time of the last dispatch
	tokens float64
	last   time.Time // last bucket refill

	admitted       uint64
	limitedRate    uint64
	limitedBacklog uint64
	dispatched     uint64
}

// weight reads the effective WFQ weight.
func (tn *tenant) weight() int {
	if tn.limits.Weight <= 0 {
		return 1
	}
	return tn.limits.Weight
}

// burst reads the effective bucket capacity.
func (tn *tenant) burst() float64 {
	b := tn.limits.Burst
	if b <= 0 {
		b = tn.limits.Rate
	}
	if b < 1 {
		b = 1
	}
	return b
}

// refill advances the token bucket to now.
func (tn *tenant) refill(now time.Time) {
	if tn.limits.Rate <= 0 {
		return
	}
	if tn.last.IsZero() {
		tn.tokens = tn.burst()
	} else if now.After(tn.last) {
		tn.tokens += now.Sub(tn.last).Seconds() * tn.limits.Rate
		if b := tn.burst(); tn.tokens > b {
			tn.tokens = b
		}
	}
	tn.last = now
}

// chargeTokens refills, requires at least one token, and drains up to
// n (floor zero). Campaigns charge their whole cell count this way: a
// campaign needs one token to be admitted at all, and a big one leaves
// the bucket empty so follow-up submissions pay for it — without
// making any campaign larger than the burst permanently inadmissible.
// On refusal it returns the delay until one token exists.
func (tn *tenant) chargeTokens(now time.Time, n int) (time.Duration, bool) {
	if tn.limits.Rate <= 0 {
		return 0, true
	}
	tn.refill(now)
	if tn.tokens < 1 {
		need := (1 - tn.tokens) / tn.limits.Rate
		return time.Duration(need * float64(time.Second)), false
	}
	tn.tokens -= float64(n)
	if tn.tokens < 0 {
		tn.tokens = 0
	}
	return 0, true
}

// scheduler replaces the FIFO job channel: admission (token bucket +
// backlog + global depth) on the way in, strict-priority weighted-fair
// dispatch on the way out. It has its own mutex and never calls back
// into the Server, so it can be used under s.mu.
//
// The tenant set is fixed at construction: the declared tenants plus
// the default tenant, which every undeclared API key shares.
type scheduler struct {
	mu       sync.Mutex
	now      func() time.Time
	depthCap int // global queued bound (Config.QueueDepth)

	byKey   map[string]*tenant // API key → tenant; read-only after construction
	byName  map[string]*tenant // read-only after construction
	tenants []*tenant          // sorted by name: deterministic WFQ tie-break

	queued int
	vnow   float64 // global virtual time

	wake chan struct{} // cap 1: kicks one blocked worker per push
}

func newScheduler(cfg Config, now func() time.Time) *scheduler {
	sc := &scheduler{
		now:      now,
		depthCap: cfg.QueueDepth,
		byKey:    map[string]*tenant{},
		byName:   map[string]*tenant{},
		wake:     make(chan struct{}, 1),
	}
	add := func(name string, limits TenantLimits) *tenant {
		if tn, ok := sc.byName[name]; ok {
			return tn
		}
		tn := &tenant{name: name, limits: limits}
		sc.byName[name] = tn
		sc.tenants = append(sc.tenants, tn)
		return tn
	}
	for _, tc := range cfg.Tenants {
		tn := add(tc.Name, tc.TenantLimits)
		if tc.Key != "" {
			sc.byKey[tc.Key] = tn
		}
	}
	add(DefaultTenant, TenantLimits{})
	sort.Slice(sc.tenants, func(a, b int) bool { return sc.tenants[a].name < sc.tenants[b].name })
	return sc
}

// resolve maps an API key to its declared tenant's name. Every other
// key, and no key, is the default tenant: a client cannot mint fresh
// admission domains (or metrics series) by rotating keys.
func (sc *scheduler) resolve(apiKey string) string {
	if tn, ok := sc.byKey[apiKey]; ok {
		return tn.name
	}
	return DefaultTenant
}

// tenantLocked fetches a tenant by name. Names not declared, such as
// journaled tenants no longer configured, are the default tenant.
func (sc *scheduler) tenantLocked(name string) *tenant {
	if tn, ok := sc.byName[name]; ok {
		return tn
	}
	return sc.byName[DefaultTenant]
}

// submit queues a job for dispatch. With charge set (the client-facing
// admission path) the tenant's backlog bound and token bucket apply
// and refusals come back as ErrTenantLimited; uncharged submissions
// (campaign cell launches, which paid at campaign admission, and
// fleet-claim executions) only respect the global depth cap.
func (sc *scheduler) submit(j *Job, charge bool) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tn := sc.tenantLocked(j.tenant)
	if charge {
		if tn.limits.Backlog > 0 && tn.queued >= tn.limits.Backlog {
			tn.limitedBacklog++
			return &tenantLimitedError{tenant: tn.name, reason: "backlog", retryAfter: time.Second}
		}
		if ra, ok := tn.chargeTokens(sc.now(), 1); !ok {
			tn.limitedRate++
			return &tenantLimitedError{tenant: tn.name, reason: "rate", retryAfter: ra}
		}
	}
	if sc.depthCap > 0 && sc.queued >= sc.depthCap {
		return ErrQueueFull
	}
	if charge {
		tn.admitted++
	}
	sc.pushLocked(tn, j)
	return nil
}

// admitCampaign charges a whole campaign's cell count against the
// tenant's bucket at submission time (cells launch uncharged later).
func (sc *scheduler) admitCampaign(tenantName string, cells int) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tn := sc.tenantLocked(tenantName)
	if ra, ok := tn.chargeTokens(sc.now(), cells); !ok {
		tn.limitedRate++
		return &tenantLimitedError{tenant: tn.name, reason: "rate", retryAfter: ra}
	}
	tn.admitted++
	return nil
}

// force queues a job unconditionally — the crash-recovery requeue
// path, which must never drop journaled work.
func (sc *scheduler) force(j *Job) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.pushLocked(sc.tenantLocked(j.tenant), j)
}

func (sc *scheduler) pushLocked(tn *tenant, j *Job) {
	p := j.priority
	if p < 0 {
		p = 0
	}
	if p >= numPriorities {
		p = numPriorities - 1
	}
	// A tenant going from idle to busy starts at the current virtual
	// time: it gets its fair share from now on, no credit for idling.
	if tn.queued == 0 && tn.vtime < sc.vnow {
		tn.vtime = sc.vnow
	}
	tn.queues[p] = append(tn.queues[p], j)
	tn.queued++
	sc.queued++
	sc.signal()
}

func (sc *scheduler) signal() {
	select {
	case sc.wake <- struct{}{}:
	default:
	}
}

// pop blocks until a job is available (returning it) or quit closes
// with nothing left to drain (returning false). After quit closes it
// keeps handing out whatever is still queued — the graceful-drain
// contract the old channel gave Shutdown.
func (sc *scheduler) pop(quit <-chan struct{}) (*Job, bool) {
	for {
		sc.mu.Lock()
		j := sc.popLocked()
		more := sc.queued > 0
		sc.mu.Unlock()
		if j != nil {
			if more {
				sc.signal() // other workers may be parked; pass the baton
			}
			return j, true
		}
		select {
		case <-sc.wake:
		case <-quit:
			sc.mu.Lock()
			j := sc.popLocked()
			more := sc.queued > 0
			sc.mu.Unlock()
			if j == nil {
				return nil, false
			}
			if more {
				sc.signal()
			}
			return j, true
		}
	}
}

// popLocked picks the next job: highest non-empty priority class
// first (strict preemption of queued work), then the tenant with the
// smallest WFQ virtual time within that class, ties broken by tenant
// name so dispatch order is deterministic.
func (sc *scheduler) popLocked() *Job {
	for p := numPriorities - 1; p >= 0; p-- {
		var best *tenant
		for _, tn := range sc.tenants {
			if len(tn.queues[p]) == 0 {
				continue
			}
			if best == nil || tn.vtime < best.vtime {
				best = tn
			}
		}
		if best == nil {
			continue
		}
		q := best.queues[p]
		j := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		best.queues[p] = q[:len(q)-1]
		best.queued--
		sc.queued--
		best.dispatched++
		// Virtual-time bookkeeping: service starts at max(global vnow,
		// tenant vtime) and costs 1/weight, so heavier tenants advance
		// slower and drain proportionally more often.
		start := best.vtime
		if sc.vnow > start {
			start = sc.vnow
		}
		sc.vnow = start
		best.vtime = start + 1/float64(best.weight())
		return j
	}
	return nil
}

// remove drops a still-queued job (client cancel) so its backlog slot
// frees immediately instead of at dispatch. Reports whether the job
// was found.
func (sc *scheduler) remove(j *Job) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tn := sc.tenantLocked(j.tenant)
	for p := range tn.queues {
		for i, q := range tn.queues[p] {
			if q == j {
				tn.queues[p] = append(tn.queues[p][:i], tn.queues[p][i+1:]...)
				tn.queued--
				sc.queued--
				return true
			}
		}
	}
	return false
}

// promote moves a queued job into a higher priority class (a
// deduplicated identical submission at higher priority lifts the
// in-flight job rather than waiting behind bulk work). Placement only;
// the job's recorded spec keeps the original submitter's class.
func (sc *scheduler) promote(j *Job, priority int) bool {
	if priority <= j.priority || priority >= numPriorities {
		return false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tn := sc.tenantLocked(j.tenant)
	for p := 0; p < priority; p++ {
		for i, q := range tn.queues[p] {
			if q == j {
				tn.queues[p] = append(tn.queues[p][:i], tn.queues[p][i+1:]...)
				tn.queues[priority] = append(tn.queues[priority], j)
				return true
			}
		}
	}
	return false
}

// depth reports the total queued count (the /metrics queue gauge).
func (sc *scheduler) depth() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.queued
}

// tenantStat is one tenant's point-in-time admission counters for the
// metrics exposition.
type tenantStat struct {
	Name           string
	Weight         int
	Queued         int
	Admitted       uint64
	LimitedRate    uint64
	LimitedBacklog uint64
	Dispatched     uint64
}

// stats snapshots every tenant in name order.
func (sc *scheduler) stats() []tenantStat {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]tenantStat, 0, len(sc.tenants))
	for _, tn := range sc.tenants {
		out = append(out, tenantStat{
			Name:           tn.name,
			Weight:         tn.weight(),
			Queued:         tn.queued,
			Admitted:       tn.admitted,
			LimitedRate:    tn.limitedRate,
			LimitedBacklog: tn.limitedBacklog,
			Dispatched:     tn.dispatched,
		})
	}
	return out
}
