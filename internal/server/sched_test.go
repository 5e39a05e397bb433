package server

import (
	"errors"
	"testing"
	"time"
)

// schedFor builds a scheduler with a controllable clock.
func schedFor(t *testing.T, cfg Config) (*scheduler, *time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	sc := newScheduler(cfg, func() time.Time { return now })
	return sc, &now
}

func schedJob(id, tenant string, priority int) *Job {
	return newJob(id, "key-"+id, &compiledSpec{spec: JobSpec{Kind: KindRun}}, StateQueued, submission{tenant: tenant, priority: priority})
}

// mustPop pops without blocking (the tests enqueue before popping).
func mustPop(t *testing.T, sc *scheduler) *Job {
	t.Helper()
	sc.mu.Lock()
	j := sc.popLocked()
	sc.mu.Unlock()
	if j == nil {
		t.Fatalf("popLocked returned nil with %d queued", sc.depth())
	}
	return j
}

// TestSchedWeightedFairInterleave pins the WFQ dispatch pattern: with
// weights 1 and 3 under continuous backlog, every 4 dispatches serve
// the light tenant once and the heavy tenant three times, and the
// sequence is fully deterministic (ties break by tenant name).
func TestSchedWeightedFairInterleave(t *testing.T) {
	sc, _ := schedFor(t, Config{Tenants: []TenantConfig{
		{Name: "alice", Key: "ka", TenantLimits: TenantLimits{Weight: 1}},
		{Name: "bob", Key: "kb", TenantLimits: TenantLimits{Weight: 3}},
	}})
	for i := 0; i < 20; i++ {
		if err := sc.submit(schedJob(sprintfJob("a", i), "alice", PriorityBatch), true); err != nil {
			t.Fatal(err)
		}
		if err := sc.submit(schedJob(sprintfJob("b", i), "bob", PriorityBatch), true); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	var order []string
	for i := 0; i < 20; i++ {
		j := mustPop(t, sc)
		counts[j.tenant]++
		order = append(order, j.tenant[:1])
	}
	if counts["bob"] != 15 || counts["alice"] != 5 {
		t.Fatalf("first 20 dispatches: alice=%d bob=%d (order %v), want 5/15", counts["alice"], counts["bob"], order)
	}
	// Re-running the same schedule must yield the same interleave.
	sc2, _ := schedFor(t, Config{Tenants: []TenantConfig{
		{Name: "alice", Key: "ka", TenantLimits: TenantLimits{Weight: 1}},
		{Name: "bob", Key: "kb", TenantLimits: TenantLimits{Weight: 3}},
	}})
	for i := 0; i < 20; i++ {
		sc2.submit(schedJob(sprintfJob("a", i), "alice", PriorityBatch), true)
		sc2.submit(schedJob(sprintfJob("b", i), "bob", PriorityBatch), true)
	}
	for i := 0; i < 20; i++ {
		if got := mustPop(t, sc2).tenant[:1]; got != order[i] {
			t.Fatalf("dispatch %d: %s, want %s (schedule not deterministic)", i, got, order[i])
		}
	}
}

func sprintfJob(prefix string, i int) string {
	return prefix + "-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestSchedStrictPriorityPreemptsQueuedBatch pins the class ordering:
// an interactive job submitted after a pile of batch work is dispatched
// next, ahead of every queued batch job.
func TestSchedStrictPriorityPreemptsQueuedBatch(t *testing.T) {
	sc, _ := schedFor(t, Config{})
	for i := 0; i < 10; i++ {
		sc.submit(schedJob(sprintfJob("bulk", i), DefaultTenant, PriorityBatch), true)
	}
	probe := schedJob("probe", DefaultTenant, PriorityInteractive)
	sc.submit(probe, true)
	if j := mustPop(t, sc); j != probe {
		t.Fatalf("first dispatch = %s, want the interactive probe", j.ID)
	}
}

// TestSchedTokenBucketRate exercises the admission rate limit: burst
// drains, the next submission refuses with ErrTenantLimited/"rate" and
// a positive Retry-After, and refilled tokens re-admit.
func TestSchedTokenBucketRate(t *testing.T) {
	sc, now := schedFor(t, Config{Tenants: []TenantConfig{
		{Name: "metered", Key: "km", TenantLimits: TenantLimits{Rate: 1, Burst: 2}},
	}})
	if got := sc.resolve("km"); got != "metered" {
		t.Fatalf("resolve = %q", got)
	}
	for i := 0; i < 2; i++ {
		if err := sc.submit(schedJob(sprintfJob("m", i), "metered", PriorityBatch), true); err != nil {
			t.Fatalf("submission %d inside burst refused: %v", i, err)
		}
	}
	err := sc.submit(schedJob("m-over", "metered", PriorityBatch), true)
	if !errors.Is(err, ErrTenantLimited) {
		t.Fatalf("over-rate submission error = %v, want ErrTenantLimited", err)
	}
	var tl *tenantLimitedError
	if !errors.As(err, &tl) || tl.reason != "rate" || retryAfterSeconds(tl.retryAfter) < 1 {
		t.Fatalf("limit detail = %+v", tl)
	}
	*now = now.Add(1500 * time.Millisecond) // refill > 1 token
	if err := sc.submit(schedJob("m-later", "metered", PriorityBatch), true); err != nil {
		t.Fatalf("post-refill submission refused: %v", err)
	}
	// stats lists tenants by name: "default" (always present), "metered".
	st := sc.stats()
	if len(st) != 2 || st[1].Name != "metered" || st[1].Admitted != 3 || st[1].LimitedRate != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSchedBacklogBound exercises the per-tenant queue bound and that
// it is checked before the token bucket (a backlog refusal must not
// burn a token).
func TestSchedBacklogBound(t *testing.T) {
	sc, _ := schedFor(t, Config{Tenants: []TenantConfig{
		{Name: "bounded", Key: "kb", TenantLimits: TenantLimits{Rate: 100, Burst: 100, Backlog: 2}},
	}})
	for i := 0; i < 2; i++ {
		if err := sc.submit(schedJob(sprintfJob("q", i), "bounded", PriorityBatch), true); err != nil {
			t.Fatal(err)
		}
	}
	err := sc.submit(schedJob("q-over", "bounded", PriorityBatch), true)
	var tl *tenantLimitedError
	if !errors.As(err, &tl) || tl.reason != "backlog" {
		t.Fatalf("overflow error = %v, want backlog limit", err)
	}
	// Dispatching one frees a slot immediately.
	mustPop(t, sc)
	if err := sc.submit(schedJob("q-after", "bounded", PriorityBatch), true); err != nil {
		t.Fatalf("submission after dispatch refused: %v", err)
	}
	st := sc.stats()
	if st[0].LimitedBacklog != 1 || st[0].LimitedRate != 0 {
		t.Fatalf("stats = %+v (backlog refusal must not touch the bucket)", st[0])
	}
}

// TestSchedIsolation pins the headline property: a tenant flooding its
// own queue does not change when another tenant's job is served.
func TestSchedIsolation(t *testing.T) {
	sc, _ := schedFor(t, Config{Tenants: []TenantConfig{
		{Name: "flood-key", Key: "flood-key"},
		{Name: "probe-key", Key: "probe-key"},
	}})
	for i := 0; i < 50; i++ {
		sc.submit(schedJob(sprintfJob("f", i), "flood-key", PriorityBatch), true)
	}
	sc.submit(schedJob("p-0", "probe-key", PriorityBatch), true)
	// Equal weights: the probe tenant's single job must surface within
	// two dispatches (WFQ alternates), not after the 50-deep flood.
	first, second := mustPop(t, sc), mustPop(t, sc)
	if first.tenant != "probe-key" && second.tenant != "probe-key" {
		t.Fatalf("probe served after %q,%q — starved by the flood", first.tenant, second.tenant)
	}
}

// TestSchedUnknownKeyIsDefaultTenant: undeclared API keys share the
// default tenant's admission domain, so rotating keys buys no extra
// backlog (or rate), and the tenant set never grows.
func TestSchedUnknownKeyIsDefaultTenant(t *testing.T) {
	sc, _ := schedFor(t, Config{Tenants: []TenantConfig{
		{Name: DefaultTenant, TenantLimits: TenantLimits{Backlog: 1}},
	}})
	a, b := sc.resolve("key-a"), sc.resolve("key-b")
	if a != DefaultTenant || b != DefaultTenant {
		t.Fatalf("resolve: %q, %q; want %q", a, b, DefaultTenant)
	}
	if err := sc.submit(schedJob("a-0", a, PriorityBatch), true); err != nil {
		t.Fatal(err)
	}
	// The shared backlog is full: a fresh key is refused too.
	if err := sc.submit(schedJob("b-0", b, PriorityBatch), true); !errors.Is(err, ErrTenantLimited) {
		t.Fatalf("fresh key past the default backlog: %v", err)
	}
	// A journaled tenant no longer declared queues as the default tenant.
	if err := sc.submit(schedJob("old-0", "retired", PriorityBatch), true); !errors.Is(err, ErrTenantLimited) {
		t.Fatalf("undeclared tenant name past the default backlog: %v", err)
	}
	if st := sc.stats(); len(st) != 1 || st[0].Name != DefaultTenant {
		t.Fatalf("tenants = %+v, want only %q", st, DefaultTenant)
	}
}

// TestSchedPromoteAndRemove covers dedup promotion (a queued batch job
// lifted to interactive dispatches next) and cancel removal freeing the
// backlog slot.
func TestSchedPromoteAndRemove(t *testing.T) {
	sc, _ := schedFor(t, Config{})
	jobs := make([]*Job, 5)
	for i := range jobs {
		jobs[i] = schedJob(sprintfJob("j", i), DefaultTenant, PriorityBatch)
		sc.submit(jobs[i], true)
	}
	if !sc.promote(jobs[3], PriorityInteractive) {
		t.Fatal("promote refused")
	}
	if j := mustPop(t, sc); j != jobs[3] {
		t.Fatalf("first dispatch = %s, want promoted job", j.ID)
	}
	if !sc.remove(jobs[1]) {
		t.Fatal("remove refused")
	}
	if sc.remove(jobs[1]) {
		t.Fatal("double remove succeeded")
	}
	if d := sc.depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}
