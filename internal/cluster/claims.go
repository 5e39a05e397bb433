package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// terminalRetain is how long a settled claim stays in the table before
// the sweep prunes it. Long enough for late duplicate reports and peer
// reconciliation to find the entry; short enough that the table doesn't
// grow without bound.
const terminalRetain = 10 * time.Minute

// ResultSink receives the bytes of a settled claim so they land in the
// coordinator's content-addressed cache. The server implements it.
type ResultSink interface {
	StoreResult(key string, result []byte) error
}

// ResultSource is the optional read side of a ResultSink. The claims
// journal deliberately records terminal states without their payloads
// (results live in the content-addressed store), so a replayed done
// entry comes back byte-less; a sink that can also load results lets
// the table rehydrate those entries at attach time instead of
// replicating empty terminals or re-executing finished work.
type ResultSource interface {
	LoadResult(key string) ([]byte, bool)
}

// claimEntry is one job's lease state. All fields are guarded by the
// table mutex; done is closed exactly once, when the entry settles.
type claimEntry struct {
	key       string
	label     string
	tenant    string // admitting tenant, carried for observability and journals
	priority  int    // scheduling class; Claim serves higher classes first
	spec      json.RawMessage
	state     string // pending | claimed | done | failed
	claimedBy string
	expires   time.Time
	attempt   int
	errMsg    string
	result    []byte
	settledAt time.Time
	done      chan struct{}
}

func (e *claimEntry) terminal() bool {
	return e.state == ClaimDone || e.state == ClaimFailed
}

// ClaimCounters are the table's lifetime counters, exported as the
// slipd_claims_total{outcome} family plus expirations.
type ClaimCounters struct {
	Granted     uint64 // leases handed out (first claims and expiry reclaims)
	Done        uint64 // claims settled with result bytes
	Failed      uint64 // claims settled with an error
	Duplicate   uint64 // terminal reports discarded because the claim had settled
	Expirations uint64 // leases that expired and went back to pending
}

// ClaimView is one entry of GET /cluster/claims.
type ClaimView struct {
	Key       string `json:"key"`
	Label     string `json:"label"`
	Tenant    string `json:"tenant,omitempty"`
	Priority  string `json:"priority,omitempty"`
	State     string `json:"state"`
	ClaimedBy string `json:"claimed_by,omitempty"`
	Attempt   int    `json:"claim_attempt"`
	ExpiresMs int64  `json:"claim_expires_at,omitempty"`
}

// WorkerView is one visible worker in GET /cluster/workers.
type WorkerView struct {
	ID         string `json:"id"`
	LastSeenMs int64  `json:"last_seen_ms"` // ms since the worker was last seen
}

// ClaimTable is the shared dispatch state: jobs enter pending, workers
// claim them under a lease, and terminal reports settle them. It is the
// only coordination primitive on the dispatch path — liveness is
// enforced purely by lease expiry — and the coordinator's only record
// of workers: a worker is visible while it was last seen within one
// lease.
type ClaimTable struct {
	mu      sync.Mutex
	entries map[string]*claimEntry
	order   []string // FIFO claim order; prune keeps it in step with entries

	// seen is each worker's last contact: refreshed by its polls, renewals
	// and reports, and by any lease naming it (at the lease's grant or
	// last renewal, expires − lease), so a worker holding an unexpired
	// lease is seen within one lease. SweepLeases prunes workers silent
	// for longer.
	seen map[string]time.Time

	now         func() time.Time
	lease       time.Duration
	maxAttempts int

	notify chan struct{} // closed+replaced to wake long-polling claimers

	// journal persists every state change (nil in tests that don't care);
	// sink stores settled bytes; onChange kicks replication. All three
	// are called outside the mutex.
	journal  func(rec store.Record, sync bool)
	sink     ResultSink
	onChange func()

	// disableTerminalWins is the simulation harness's mutation hook: it
	// switches off the incoming-terminal-settles rule in Merge so the
	// invariant checker can be shown to catch a broken merge. Never set
	// outside tests.
	disableTerminalWins bool

	ctr ClaimCounters
}

func newClaimTable(now func() time.Time, lease time.Duration, maxAttempts int) *ClaimTable {
	return &ClaimTable{
		entries:     make(map[string]*claimEntry),
		seen:        make(map[string]time.Time),
		now:         now,
		lease:       lease,
		maxAttempts: maxAttempts,
		notify:      make(chan struct{}),
	}
}

// seenLocked records that worker was alive at at, keeping the latest
// sighting. Callers hold t.mu.
func (t *ClaimTable) seenLocked(worker string, at time.Time) {
	if worker != "" && at.After(t.seen[worker]) {
		t.seen[worker] = at
	}
}

// visibleLocked reports whether a worker last seen at seen is still
// visible at now: within one lease, the same bound lease expiry uses.
// Callers hold t.mu.
func (t *ClaimTable) visibleLocked(seen, now time.Time) bool {
	return !now.After(seen.Add(t.lease))
}

// Workers lists the visible workers, sorted by id.
func (t *ClaimTable) Workers() []WorkerView {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]WorkerView, 0, len(t.seen))
	for id, at := range t.seen {
		if t.visibleLocked(at, now) {
			// A peer clock running ahead can date a replicated sighting
			// slightly in the future; report that as just seen.
			out = append(out, WorkerView{ID: id, LastSeenMs: max(0, now.Sub(at).Milliseconds())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// wait returns a channel that is closed the next time the table gains
// claimable work. Callers select on it alongside their own deadline.
func (t *ClaimTable) wait() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.notify
}

// wakeLocked wakes every parked claimer. Callers hold t.mu.
func (t *ClaimTable) wakeLocked() {
	close(t.notify)
	t.notify = make(chan struct{})
}

// changed runs the post-mutation hooks outside the mutex.
func (t *ClaimTable) changed(recs []store.Record, sync bool) {
	if t.journal != nil {
		for _, r := range recs {
			t.journal(r, sync)
		}
	}
	if t.onChange != nil {
		t.onChange()
	}
}

func (e *claimEntry) record() store.Record {
	r := store.Record{
		Job:          "claim-" + e.key[:16],
		Key:          e.key,
		Label:        e.label,
		Tenant:       e.tenant,
		Priority:     server.PriorityName(e.priority),
		State:        e.state,
		Error:        e.errMsg,
		Spec:         e.spec,
		ClaimedBy:    e.claimedBy,
		ClaimAttempt: e.attempt,
	}
	if !e.expires.IsZero() && e.state == ClaimClaimed {
		r.ClaimExpiresAt = e.expires.UnixMilli()
	}
	return r
}

// Enqueue adds a job to the table (or joins the existing entry) and
// returns a channel closed when the claim settles. Terminal entries:
// done-with-bytes returns an already-closed channel (the caller reads
// the result immediately); done-without-bytes or failed entries are
// resurrected to pending — the bytes are gone or the failure may have
// been transient across a restart, and re-execution is free.
func (t *ClaimTable) Enqueue(key, label, tenant string, priority int, spec json.RawMessage) <-chan struct{} {
	t.mu.Lock()
	e, ok := t.entries[key]
	if ok {
		// Joiners refresh admission identity: a later, higher-priority
		// submission of the same key pulls the claim forward.
		if tenant != "" {
			e.tenant = tenant
		}
		if priority > e.priority {
			e.priority = priority
		}
		if e.state == ClaimDone && len(e.result) > 0 {
			ch := e.done
			t.mu.Unlock()
			return ch
		}
		if e.terminal() {
			e.state = ClaimPending
			e.claimedBy = ""
			e.expires = time.Time{}
			e.attempt = 0
			e.errMsg = ""
			e.result = nil
			e.settledAt = time.Time{}
			e.done = make(chan struct{})
			ch := e.done
			rec := e.record()
			t.wakeLocked()
			t.mu.Unlock()
			t.changed([]store.Record{rec}, false)
			return ch
		}
		// pending or claimed: join the in-flight entry.
		ch := e.done
		t.mu.Unlock()
		return ch
	}
	e = &claimEntry{
		key:      key,
		label:    label,
		tenant:   tenant,
		priority: priority,
		spec:     spec,
		state:    ClaimPending,
		done:     make(chan struct{}),
	}
	t.entries[key] = e
	t.order = append(t.order, key)
	ch := e.done
	rec := e.record()
	t.wakeLocked()
	t.mu.Unlock()
	t.changed([]store.Record{rec}, false)
	return ch
}

// Claim hands worker the best claimable job, if any: a pending entry or
// a claimed entry whose lease expired. Higher priority classes are
// served first; within a class the oldest claimable entry wins, so
// fleet dispatch preserves the coordinator's fair-scheduler ordering.
// The grant bumps the attempt; a lease that would exceed the attempt
// budget settles the entry as failed instead. Every call, granted or
// not, counts as a sighting of worker.
func (t *ClaimTable) Claim(worker string) (ClaimGrant, bool) {
	now := t.now()
	t.mu.Lock()
	t.seenLocked(worker, now)
	var recs []store.Record
	var failedAny bool
	var best *claimEntry
	bestExpired := false
	for _, key := range t.order {
		e := t.entries[key]
		if e == nil || e.terminal() {
			continue
		}
		expired := e.state == ClaimClaimed && now.After(e.expires)
		if e.state != ClaimPending && !expired {
			continue
		}
		if e.attempt+1 > t.maxAttempts {
			if expired {
				t.ctr.Expirations++
			}
			e.state = ClaimFailed
			e.errMsg = fmt.Sprintf("claim attempts exhausted (%d)", e.attempt)
			e.claimedBy = ""
			e.expires = time.Time{}
			e.settledAt = now
			t.ctr.Failed++
			close(e.done)
			recs = append(recs, e.record())
			failedAny = true
			continue
		}
		if best == nil || e.priority > best.priority {
			best, bestExpired = e, expired
		}
	}
	if best == nil {
		t.mu.Unlock()
		if len(recs) > 0 {
			t.changed(recs, failedAny)
		}
		return ClaimGrant{}, false
	}
	e := best
	if bestExpired {
		t.ctr.Expirations++
	}
	e.attempt++
	e.state = ClaimClaimed
	e.claimedBy = worker
	e.expires = now.Add(t.lease)
	t.ctr.Granted++
	grant := ClaimGrant{
		Key:     e.key,
		Spec:    e.spec,
		Attempt: e.attempt,
		LeaseMs: t.lease.Milliseconds(),
	}
	recs = append(recs, e.record())
	t.mu.Unlock()
	t.changed(recs, failedAny)
	return grant, true
}

// Renew extends worker's lease on key. It succeeds only while the lease
// is still this worker's at this attempt — a superseded claimant learns
// its lease is gone and stops renewing. Either way the worker is seen.
func (t *ClaimTable) Renew(worker, key string, attempt int) bool {
	now := t.now()
	t.mu.Lock()
	t.seenLocked(worker, now)
	e := t.entries[key]
	ok := e != nil && e.state == ClaimClaimed && e.claimedBy == worker && e.attempt == attempt
	var rec store.Record
	if ok {
		e.expires = now.Add(t.lease)
		rec = e.record()
	}
	t.mu.Unlock()
	if ok {
		t.changed([]store.Record{rec}, false)
	}
	return ok
}

// Report settles key with a terminal state. First terminal report wins
// regardless of attempt — determinism makes every copy's bytes
// identical, so a "late" report from a superseded lease is as good as
// the current one. Returns false for duplicates (already settled). The
// reporter is seen either way.
func (t *ClaimTable) Report(worker, key, state string, result []byte, errMsg string) bool {
	now := t.now()
	t.mu.Lock()
	t.seenLocked(worker, now)
	e := t.entries[key]
	if e == nil || e.terminal() {
		t.ctr.Duplicate++
		t.mu.Unlock()
		return false
	}
	t.settleLocked(e, state, result, errMsg, true)
	rec := e.record()
	res := e.result
	t.mu.Unlock()
	if state == ClaimDone && t.sink != nil && len(res) > 0 {
		_ = t.sink.StoreResult(key, res) // sink logs its own failures; bytes also live in the reporter's cache
	}
	t.changed([]store.Record{rec}, true)
	return true
}

// settleLocked moves e to a terminal state and wakes waiters. countLocal
// bumps the Done/Failed counters — true for reports settled here, false
// for states adopted from a peer (the peer already counted them).
// Callers hold t.mu and journal the entry afterwards.
func (t *ClaimTable) settleLocked(e *claimEntry, state string, result []byte, errMsg string, countLocal bool) {
	e.state = state
	e.errMsg = errMsg
	e.result = result
	e.claimedBy = ""
	e.expires = time.Time{}
	e.settledAt = t.now()
	if countLocal {
		if state == ClaimDone {
			t.ctr.Done++
		} else {
			t.ctr.Failed++
		}
	}
	close(e.done)
}

// Result reads the terminal outcome of key. ok is false while the claim
// is still in flight (or after the entry was pruned).
func (t *ClaimTable) Result(key string) (result []byte, errMsg string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil || !e.terminal() {
		return nil, "", false
	}
	return e.result, e.errMsg, true
}

// SweepLeases re-pends every expired lease (so parked claimers wake and
// reclaim it), prunes terminal entries older than terminalRetain, and
// forgets workers no longer visible. Returns how many leases expired
// this sweep.
func (t *ClaimTable) SweepLeases() int {
	now := t.now()
	t.mu.Lock()
	for id, at := range t.seen {
		if !t.visibleLocked(at, now) {
			delete(t.seen, id)
		}
	}
	var recs []store.Record
	expired := 0
	kept := t.order[:0]
	for _, key := range t.order {
		e := t.entries[key]
		if e == nil {
			continue
		}
		if e.terminal() && now.Sub(e.settledAt) > terminalRetain {
			delete(t.entries, key)
			continue
		}
		kept = append(kept, key)
		if e.state == ClaimClaimed && now.After(e.expires) {
			e.state = ClaimPending
			e.claimedBy = ""
			e.expires = time.Time{}
			t.ctr.Expirations++
			expired++
			recs = append(recs, e.record())
		}
	}
	t.order = kept
	if expired > 0 {
		t.wakeLocked()
	}
	t.mu.Unlock()
	if len(recs) > 0 {
		t.changed(recs, false)
	}
	return expired
}

// Snapshot exports the full table for replication. Result bytes ride
// along on done entries so a surviving peer can serve them.
func (t *ClaimTable) Snapshot() []ClaimRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ClaimRecord, 0, len(t.order))
	for _, key := range t.order {
		e := t.entries[key]
		if e == nil {
			continue
		}
		r := ClaimRecord{
			Key:       e.key,
			Label:     e.label,
			Tenant:    e.tenant,
			Priority:  e.priority,
			Spec:      e.spec,
			State:     e.state,
			ClaimedBy: e.claimedBy,
			Attempt:   e.attempt,
			Error:     e.errMsg,
			Result:    e.result,
		}
		if e.state == ClaimClaimed {
			r.ExpiresMs = e.expires.UnixMilli()
		}
		out = append(out, r)
	}
	return out
}

// Merge reconciles a peer's records into the table. Precedence, per
// entry: a local terminal state wins (except that a local done entry
// missing its bytes adopts the peer's bytes, and a local failed entry
// yields to a peer's done-with-bytes — "failed" means the budget ran
// out here, but some copy of the work completed, so both sides converge
// on the success); an incoming terminal state settles the local entry;
// among non-terminal states the higher attempt wins, and at equal
// attempts claimed beats pending. The rules commute, so two
// coordinators merging each other's snapshots converge without a
// leader.
func (t *ClaimTable) Merge(records []ClaimRecord) {
	type sinkPut struct {
		key string
		val []byte
	}
	t.mu.Lock()
	var recs []store.Record
	var stores []sinkPut // applied outside mu
	terminalAdopted := false
	for _, in := range records {
		if in.State == ClaimClaimed && in.ExpiresMs > 0 {
			t.seenLocked(in.ClaimedBy, time.UnixMilli(in.ExpiresMs).Add(-t.lease))
		}
		e, ok := t.entries[in.Key]
		if !ok {
			e = &claimEntry{
				key:      in.Key,
				label:    in.Label,
				tenant:   in.Tenant,
				priority: in.Priority,
				spec:     in.Spec,
				state:    ClaimPending,
				done:     make(chan struct{}),
			}
			t.entries[in.Key] = e
			t.order = append(t.order, in.Key)
		}
		if len(e.spec) == 0 && len(in.Spec) > 0 {
			e.spec = in.Spec
		}
		if e.tenant == "" {
			e.tenant = in.Tenant
		}
		if in.Priority > e.priority {
			// Priority converges on the max both peers have seen, the same
			// commutative rule joiners apply locally.
			e.priority = in.Priority
		}
		inTerminal := in.State == ClaimDone || in.State == ClaimFailed
		switch {
		case e.terminal():
			if inTerminal && in.Attempt > e.attempt {
				// Converge terminal bookkeeping: both sides settle on the
				// highest attempt that reported, whatever the arrival order.
				e.attempt = in.Attempt
			}
			if e.state == ClaimDone && len(e.result) == 0 && in.State == ClaimDone && len(in.Result) > 0 {
				e.result = in.Result
				stores = append(stores, sinkPut{in.Key, in.Result})
			}
			if e.state == ClaimFailed && in.State == ClaimDone && len(in.Result) > 0 {
				// done-with-bytes beats failed in both merge directions:
				// without this, A=failed/B=done would disagree forever.
				// e.done is already closed; adopt in place, don't re-settle.
				e.state = ClaimDone
				e.errMsg = ""
				e.result = in.Result
				if in.Attempt > e.attempt {
					e.attempt = in.Attempt
				}
				recs = append(recs, e.record())
				stores = append(stores, sinkPut{in.Key, in.Result})
			}
		case inTerminal:
			if t.disableTerminalWins {
				break // mutation hook: pretend the peer's terminal never arrived
			}
			if in.State == ClaimDone && len(in.Result) == 0 {
				// A done record whose bytes didn't survive its origin's
				// restart. Settling on it would hand dispatch waiters an
				// empty result and store nothing; leave the entry live —
				// the bytes arrive on a later snapshot once the origin
				// rehydrates, or a worker re-runs the job (determinism
				// makes the re-execution free).
				break
			}
			t.settleLocked(e, in.State, in.Result, in.Error, false)
			if in.Attempt > e.attempt {
				e.attempt = in.Attempt
			}
			terminalAdopted = true
			recs = append(recs, e.record())
			if in.State == ClaimDone && len(in.Result) > 0 {
				stores = append(stores, sinkPut{in.Key, in.Result})
			}
		case in.Attempt > e.attempt || (in.Attempt == e.attempt && in.State == ClaimClaimed && e.state == ClaimPending):
			e.attempt = in.Attempt
			e.state = in.State
			e.claimedBy = in.ClaimedBy
			if in.State == ClaimClaimed && in.ExpiresMs > 0 {
				e.expires = time.UnixMilli(in.ExpiresMs)
			} else {
				e.expires = time.Time{}
			}
			recs = append(recs, e.record())
		case in.Attempt == e.attempt && in.State == ClaimClaimed && e.state == ClaimClaimed:
			// Same lease seen from both sides: renewals push the holder's
			// expiry forward, and without carrying that refresh across,
			// every peer reclaims any job that outlives one lease — even
			// with perfectly synchronized clocks — and a clock-skewed peer
			// reclaims even sooner. Taking the max keeps the rule
			// commutative and only ever delays reclaim.
			if in.ExpiresMs > 0 {
				if exp := time.UnixMilli(in.ExpiresMs); exp.After(e.expires) {
					e.expires = exp
					recs = append(recs, e.record())
				}
			}
		}
	}
	if terminalAdopted {
		t.wakeLocked()
	}
	t.mu.Unlock()
	for _, p := range stores {
		if t.sink != nil {
			_ = t.sink.StoreResult(p.key, p.val)
		}
	}
	if len(recs) > 0 {
		t.changed(recs, terminalAdopted)
	}
}

// seed restores replayed journal records into the table at startup.
// Claimed entries come back claimed with their persisted lease; if the
// claimant died with the coordinator, the first sweep after the lease
// deadline reclaims them.
func (t *ClaimTable) seed(records []store.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range records {
		if r.Key == "" || !validClaimState(r.State) {
			continue
		}
		if _, ok := t.entries[r.Key]; ok {
			continue
		}
		e := &claimEntry{
			key:       r.Key,
			label:     r.Label,
			tenant:    r.Tenant,
			priority:  server.PriorityValue(r.Priority),
			spec:      r.Spec,
			state:     r.State,
			claimedBy: r.ClaimedBy,
			attempt:   r.ClaimAttempt,
			errMsg:    r.Error,
			done:      make(chan struct{}),
		}
		if r.State == ClaimClaimed && r.ClaimExpiresAt > 0 {
			e.expires = time.UnixMilli(r.ClaimExpiresAt)
			t.seenLocked(r.ClaimedBy, e.expires.Add(-t.lease))
		}
		if e.terminal() {
			e.settledAt = t.now()
			close(e.done)
		}
		t.entries[r.Key] = e
		t.order = append(t.order, r.Key)
	}
}

// rehydrate refills byte-less done entries (journal replay restores the
// state but not the payload) from the attached store, so this
// coordinator replicates real terminals instead of empty ones and
// dispatch waiters joining the entry get bytes, not a re-execution.
func (t *ClaimTable) rehydrate(src ResultSource) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.state == ClaimDone && len(e.result) == 0 {
			if b, ok := src.LoadResult(e.key); ok && len(b) > 0 {
				e.result = b
			}
		}
	}
}

// Views lists the table for GET /cluster/claims, oldest first.
func (t *ClaimTable) Views() []ClaimView {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ClaimView, 0, len(t.order))
	for _, key := range t.order {
		e := t.entries[key]
		if e == nil {
			continue
		}
		v := ClaimView{
			Key:       e.key,
			Label:     e.label,
			Tenant:    e.tenant,
			Priority:  server.PriorityName(e.priority),
			State:     e.state,
			ClaimedBy: e.claimedBy,
			Attempt:   e.attempt,
		}
		if e.state == ClaimClaimed {
			v.ExpiresMs = e.expires.UnixMilli()
		}
		out = append(out, v)
	}
	return out
}

// Counters returns a copy of the lifetime counters.
func (t *ClaimTable) Counters() ClaimCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctr
}
