package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/store"
)

// State is a job's lifecycle position. queued → running → done|failed;
// a queued job cancelled before a worker picks it up goes straight to
// failed, and a cache hit is born done.
type State string

// Job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one submitted simulation job. All mutable fields are guarded by
// mu; the done channel closes exactly once when the job reaches a
// terminal state, which is what waiters (HTTP result polls, Shutdown,
// tests) select on.
type Job struct {
	ID  string
	Key string // cache key (sha256 hex)

	// Admission identity, fixed before the job is registered: the tenant
	// the job queues under, its priority class, and — for campaign cells
	// — the campaign and cell it executes.
	tenant   string
	priority int
	campaign string
	cell     string

	// Also fixed at registration: the compiled spec the job runs (a
	// restored terminal job holds only its decoded spec), how many times
	// it was handed to the queue, whether a cache hit answered it, and
	// whether the journal replay restored it.
	c        *compiledSpec
	attempts int
	cached   bool
	restored bool

	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	result   []byte
	cancel   context.CancelFunc // non-nil while running

	broker *broker
	done   chan struct{}
}

// newJob builds a job with its admission identity. A job born terminal
// (a cache hit, or a journaled outcome) never runs, so its done channel
// and event stream end at once.
func newJob(id, key string, c *compiledSpec, state State, sub submission) *Job {
	j := &Job{
		ID:       id,
		Key:      key,
		tenant:   sub.tenant,
		priority: sub.priority,
		campaign: sub.campaign,
		cell:     sub.cell,
		c:        c,
		attempts: 1,
		state:    state,
		created:  time.Now(),
		broker:   newBroker(),
		done:     make(chan struct{}),
	}
	if state != StateQueued {
		close(j.done)
		j.broker.close()
	}
	return j
}

// firstRecord is the journal record that introduces the job: its state
// at registration, identity and spec. Later records carry transitions
// only. Build it before a worker can see the job.
func (j *Job) firstRecord() store.Record {
	return store.Record{Job: j.ID, Key: j.Key, State: string(j.state), Attempts: j.attempts, Cached: j.cached,
		Spec: specJSON(j.c.spec), Tenant: j.tenant, Priority: PriorityName(j.priority), Campaign: j.campaign, Cell: j.cell}
}

// snapshot returns a consistent copy of the mutable state.
func (j *Job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Key:      j.Key,
		State:    j.state,
		Error:    j.errMsg,
		Cached:   j.cached,
		Attempts: j.attempts,
		Restored: j.restored,
		Created:  j.created,
		Spec:     j.c.spec,
		Tenant:   j.tenant,
		Campaign: j.campaign,
		Cell:     j.cell,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// tryStart moves queued → running and installs the cancel hook; it
// refuses if the job left the queued state (cancelled while waiting).
func (j *Job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish settles the job: done with result when errMsg is empty, failed
// otherwise.
func (j *Job) finish(result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(result, errMsg)
}

func (j *Job) finishLocked(result []byte, errMsg string) {
	if errMsg == "" {
		j.state = StateDone
		j.result = result
	} else {
		j.state = StateFailed
		j.errMsg = errMsg
	}
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
}

// abort cancels the job and reports whether that ended it: a queued job
// fails at once; a running job has its context cancelled and is settled
// by its worker. Terminal jobs are left alone.
func (j *Job) abort(reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.finishLocked(nil, reason)
		return true
	case StateRunning:
		j.cancel()
	}
	return false
}

// stateNow reads the current state.
func (j *Job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// resultBytes returns the result if the job is done.
func (j *Job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// JobView is the JSON shape of a job in API responses.
type JobView struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Key      string     `json:"key"`
	Cached   bool       `json:"cached"`
	Attempts int        `json:"attempts"`
	Restored bool       `json:"restored,omitempty"`
	Tenant   string     `json:"tenant,omitempty"`
	Campaign string     `json:"campaign,omitempty"`
	Cell     string     `json:"cell,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Spec     JobSpec    `json:"spec"`
}
