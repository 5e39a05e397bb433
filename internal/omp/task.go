package omp

import (
	"repro/internal/shmem"
	"repro/internal/stats"
)

// This file is the tasking tier of the runtime: OpenMP 3.0-style explicit
// tasks (Task/Taskwait/Taskloop and a task-draining barrier) scheduled
// over per-thread fixed-capacity deques — owners push and pop LIFO at the
// tail, thieves steal FIFO at the head of the most-loaded victim, scanned
// in a deterministic order so simulated time stays reproducible. All
// scheduler state that real hardware would contend on (deque ends, the
// pending-task counter, per-task child counts) lives in simulated shared
// memory, so line migration between CMPs is modeled exactly as it is for
// the loop schedulers in sched.go.
//
// Slipstream interplay: work stealing makes task→processor placement
// timing-dependent, so — exactly like dynamic loop scheduling (§3.2.2) —
// the A-stream cannot predict which tasks its R-stream will execute.
// The R-stream therefore publishes every deferred task it runs through
// the pair's one-slot decision buffer, and the A-stream mirrors each
// scheduling construct (taskwait, task barrier) by replaying that stream:
// it executes the skeletonized task bodies (stores become prefetches,
// nested task constructs are no-ops) and stops at the construct's
// terminal decision. Because the R-stream's taskwait inside a task body
// publishes its own sub-stream plus a terminal, the replay nests exactly
// like the real execution did, and only R-stream commits ever touch the
// backing store.
//
// Restrictions (documented, not detected): task constructs must be
// executed by the R- and A-streams alike, so they must not appear inside
// Single (whose winner the A-stream cannot predict; use Master for a
// single-spawner pattern) and a region that spawns tasks must drain them
// with TaskBarrier before the region ends.

// Default task-runtime capacities. The deque capacity bounds how much a
// thread can defer before spawns start executing undeferred (the classic
// bounded-buffer cutoff); the ID budget bounds the per-region record
// table, split evenly across the team so ID allocation is thread-local
// and contention-free.
const (
	defaultTaskDequeCap = 256
	defaultTaskIDTotal  = 16384
	minTaskIDBudget     = 64
)

// taskRec is one explicit task's record: either a plain body (fn1) or a
// chunk body with its bounds (fnN, lo, hi — taskloop chunks all share one
// closure this way, keeping spawns allocation-free), plus the parent task
// for tied-task bookkeeping. Records are indexed by task ID and recycled
// across regions.
type taskRec struct {
	fn1    func(*Thread)
	fnN    func(t *Thread, lo, hi int64)
	lo, hi int64
	parent int32
}

// run executes the record's body on th.
func (r *taskRec) run(th *Thread) {
	if r.fn1 != nil {
		r.fn1(th)
		return
	}
	r.fnN(th, r.lo, r.hi)
}

// taskRT is the per-runtime tasking state, created lazily on the first
// task construct so programs that never use tasks keep a byte-identical
// address layout (and therefore byte-identical timings).
type taskRT struct {
	teamSize  int
	base      int // first explicit ID: implicit tasks own 1..teamSize
	dequeCap  int
	perThread int // explicit-ID budget per thread

	records   []taskRec
	deques    [][]int32 // per-thread rings of task IDs, dequeCap each
	nextLocal []int     // per-thread IDs handed out this region (Go-side)

	// Shared-memory scheduler state: virtual deque ends per thread
	// (steal end and owner end of the ring), the region-wide count of
	// spawned-but-incomplete deferred tasks (the termination detector),
	// and per-task incomplete-children counts (what taskwait polls).
	heads    *shmem.I64
	tails    *shmem.I64
	pending  *shmem.I64
	children *shmem.I64

	// Host-side counters (written only by R-streams, which execute one
	// at a time under the cooperative scheduler).
	steals   uint64
	spawned  uint64
	executed uint64
	inlined  uint64 // ID budget exhausted: ran undeferred and unpublished
}

// tasking returns the runtime's tasking state, creating it on first use.
func (rt *Runtime) tasking() *taskRT {
	if rt.tasks != nil {
		return rt.tasks
	}
	n := rt.teamSize
	per := rt.Cfg.TaskIDBudget
	if per <= 0 {
		per = defaultTaskIDTotal / n
		if per < minTaskIDBudget {
			per = minTaskIDBudget
		}
	}
	dcap := rt.Cfg.TaskDequeCap
	if dcap <= 0 {
		dcap = defaultTaskDequeCap
	}
	ct := &taskRT{
		teamSize:  n,
		base:      n + 1,
		dequeCap:  dcap,
		perThread: per,
		records:   make([]taskRec, n+1+n*per),
		deques:    make([][]int32, n),
		nextLocal: make([]int, n),
		heads:     rt.NewI64(n),
		tails:     rt.NewI64(n),
		pending:   rt.NewI64(1),
		children:  rt.NewI64(n + 1 + n*per),
	}
	for i := range ct.deques {
		ct.deques[i] = make([]int32, dcap)
	}
	rt.tasks = ct
	return ct
}

// regionReset recycles the tasking state for a new region. Called by the
// master before the job is published (untimed: the counters are zeroed,
// not communicated), so every thread enters the region with empty deques
// and a fresh ID space. Lagging A-streams of the previous region only
// ever read record copies, never this state.
func (ct *taskRT) regionReset() {
	for i := 0; i < ct.teamSize; i++ {
		ct.nextLocal[i] = 0
		ct.heads.Set(i, 0)
		ct.tails.Set(i, 0)
		ct.children.Set(i+1, 0)
	}
	ct.pending.Set(0, 0)
}

// allocID hands out the next explicit task ID from tid's block, or
// reports exhaustion (the spawn then executes undeferred).
func (ct *taskRT) allocID(tid int) (int32, bool) {
	if ct.nextLocal[tid] >= ct.perThread {
		return 0, false
	}
	id := int32(ct.base + tid*ct.perThread + ct.nextLocal[tid])
	ct.nextLocal[tid]++
	return id, true
}

// isDescendant walks id's parent chain and reports whether anc is an
// ancestor (or id itself). Implicit tasks are the roots of the tree.
func (ct *taskRT) isDescendant(id, anc int32) bool {
	for id != 0 {
		if id == anc {
			return true
		}
		if int(id) < ct.base {
			return false // implicit task: no parent
		}
		id = ct.records[id].parent
	}
	return false
}

// Task spawns an explicit task executing fn, tied to the spawning thread's
// current task. The task is deferred onto the spawner's deque (LIFO end);
// when the deque is full it executes immediately instead. Outside a
// parallel region the task is undeferred, like OpenMP's. A-streams skip
// spawning entirely: they learn which tasks to mirror from their
// R-stream's published decisions.
func (t *Thread) Task(fn func(*Thread)) { t.spawn(fn, nil, 0, 0) }

// spawn is the common deferral path behind Task and Taskloop.
func (t *Thread) spawn(fn1 func(*Thread), fnN func(*Thread, int64, int64), lo, hi int64) {
	if t.isA || t.abandoned {
		return
	}
	if !t.inRegion {
		if fn1 != nil {
			fn1(t)
		} else {
			fnN(t, lo, hi)
		}
		return
	}
	rt := t.rt
	ct := rt.tasking()
	old := t.P.SetCategory(stats.CatSched)
	id, ok := ct.allocID(t.id)
	if !ok {
		// ID budget exhausted: execute undeferred. No record exists, so
		// the task is not published — the A-stream simply loses prefetch
		// coverage for it, never correctness.
		ct.inlined++
		t.P.SetCategory(old)
		if fn1 != nil {
			fn1(t)
		} else {
			fnN(t, lo, hi)
		}
		return
	}
	rec := &ct.records[id]
	rec.fn1, rec.fnN, rec.lo, rec.hi, rec.parent = fn1, fnN, lo, hi, t.curTask
	ct.children.Set(int(id), 0) // lazy reset of the recycled slot
	ct.spawned++
	t.Compute(4) // descriptor setup
	t.fetchAdd(ct.children, int(t.curTask), 1)
	t.fetchAdd(ct.pending, 0, 1)
	t.P.RMW(ct.tails.Addr(t.id))
	h, tl := ct.heads.Get(t.id), ct.tails.Get(t.id)
	if int(tl-h) >= ct.dequeCap {
		// Deque full: run the task undeferred. It is registered and
		// counted, but executes inside Task() — a point the A-stream does
		// not mirror — so it must not be published.
		t.P.SetCategory(old)
		t.runTask(ct, id, false)
		return
	}
	ct.deques[t.id][int(tl)%ct.dequeCap] = id
	ct.tails.Set(t.id, tl+1)
	t.P.SetCategory(old)
}

// runTask executes one registered task on this R-stream: publish it to
// the A-stream when the construct mirrors (deferred tasks run at
// scheduling points), pay the straggler stall if this thread is faulted,
// run the body as the current task, then retire it against the parent's
// child count and the region's pending count.
func (t *Thread) runTask(ct *taskRT, id int32, publish bool) {
	if t.ssActive && publish {
		t.rt.SS.RPublishDecision(t.P, int64(id), int64(id)+1)
	}
	// A straggler thread pays its stall on every task it executes: its
	// deque backs up and it becomes the steal victim of the whole team.
	if d := t.rt.M.Faults.ThreadStall(t.id, 1); d > 0 {
		t.P.Wait(d)
	}
	rec := &ct.records[id]
	prev := t.curTask
	t.curTask = id
	old := t.P.SetCategory(stats.CatBusy)
	rec.run(t)
	t.P.SetCategory(old)
	t.curTask = prev
	t.fetchAdd(ct.children, int(rec.parent), -1)
	t.fetchAdd(ct.pending, 0, -1)
	ct.executed++
}

// tryRunTask executes one deferred task if any is available: first the
// newest on the own deque (LIFO preserves the depth-first working set),
// then a FIFO steal from the victim with the most queued tasks, scanned
// in thread order with ties to the lowest ID — the same deterministic
// victim policy ForAffinity uses, so simulated time is reproducible.
// anc applies the tied-task scheduling constraint: when non-zero, only
// descendants of anc may run (OpenMP's rule for the innermost suspended
// tied task); zero means unconstrained (at barriers the implicit task is
// complete, so the constraint lifts).
func (t *Thread) tryRunTask(ct *taskRT, anc int32) bool {
	old := t.P.SetCategory(stats.CatSched)
	t.P.RMW(ct.tails.Addr(t.id))
	h, tl := ct.heads.Get(t.id), ct.tails.Get(t.id)
	if tl > h {
		id := ct.deques[t.id][int(tl-1)%ct.dequeCap]
		if anc == 0 || ct.isDescendant(id, anc) {
			ct.tails.Set(t.id, tl-1)
			t.P.SetCategory(old)
			t.runTask(ct, id, true)
			return true
		}
	}
	victim, best := -1, int64(0)
	for v := 0; v < ct.teamSize; v++ {
		if v == t.id {
			continue
		}
		t.P.Load(ct.tails.Addr(v))
		t.P.Load(ct.heads.Addr(v))
		if load := ct.tails.Get(v) - ct.heads.Get(v); load > best {
			victim, best = v, load
		}
	}
	if victim >= 0 {
		t.P.RMW(ct.heads.Addr(victim))
		h, tl = ct.heads.Get(victim), ct.tails.Get(victim)
		if tl > h {
			id := ct.deques[victim][int(h)%ct.dequeCap]
			if anc == 0 || ct.isDescendant(id, anc) {
				ct.heads.Set(victim, h+1)
				ct.steals++
				t.P.SetCategory(old)
				t.runTask(ct, id, true)
				return true
			}
		}
	}
	t.P.SetCategory(old)
	return false
}

// Taskwait waits for the current task's children to complete, executing
// other tasks meanwhile (a task scheduling point, constrained to
// descendants of the current task by the tied-task rule). In slipstream
// mode the R-stream publishes each task it runs here plus a terminal
// decision; the A-stream mirrors the construct by replaying exactly that
// stream, so nested taskwaits inside task bodies pair up recursively.
func (t *Thread) Taskwait() {
	if t.isA {
		if t.ssActive {
			t.aReplay(t.replayTask)
		}
		return
	}
	if !t.inRegion {
		return
	}
	rt := t.rt
	ct := rt.tasking()
	poll := rt.Cfg.Machine.SpinPollCycles
	cur := int(t.curTask)
	for {
		old := t.P.SetCategory(stats.CatSched)
		t.P.Load(ct.children.Addr(cur))
		done := ct.children.Get(cur) == 0
		t.P.SetCategory(old)
		if done {
			break
		}
		if !t.tryRunTask(ct, t.curTask) {
			old := t.P.SetCategory(stats.CatSched)
			t.P.Wait(poll)
			t.P.SetCategory(old)
		}
	}
	if t.ssActive {
		rt.SS.RPublishDecision(t.P, 0, 0)
	}
}

// TaskBarrier is a team barrier that first drains every task spawned in
// the region so far (OpenMP's barrier implies completion of all pending
// explicit tasks). Quiescence is detected from shared memory — every
// thread arrived at this occurrence and the pending count is zero; both
// are monotone between scheduling points, so the condition is stable —
// after which the R-stream publishes the construct's terminal decision
// and runs the normal barrier. The A-stream replays the drained tasks
// and then consumes the barrier token as usual.
func (t *Thread) TaskBarrier() {
	if t.isA {
		if t.ssActive {
			t.aReplay(t.replayTask)
		}
		t.Barrier()
		return
	}
	if !t.inRegion {
		return
	}
	rt := t.rt
	ct := rt.tasking()
	cell := rt.taskBarCell(int(t.lastSeq), t.taskBarIdx)
	t.taskBarIdx++
	t.fetchAdd(cell, 0, 1)
	poll := rt.Cfg.Machine.SpinPollCycles
	n := int64(rt.teamSize)
	for {
		if t.tryRunTask(ct, 0) {
			continue
		}
		old := t.P.SetCategory(stats.CatBarrier)
		t.P.Load(cell.Addr(0))
		quiet := cell.Get(0) == n
		if quiet {
			// All threads arrived: only task execution can spawn now, and
			// a running task holds a pending count until it retires, so
			// pending == 0 here means the region is drained for good.
			t.P.Load(ct.pending.Addr(0))
			quiet = ct.pending.Get(0) == 0
		}
		if !quiet {
			t.P.Wait(poll)
		}
		t.P.SetCategory(old)
		if quiet {
			break
		}
	}
	if t.ssActive {
		rt.SS.RPublishDecision(t.P, 0, 0)
	}
	t.Barrier()
}

// taskBarCell returns the arrival counter for a task-barrier occurrence
// (its own key space, like singles and ordered cells).
func (rt *Runtime) taskBarCell(seq, idx int) *shmem.I64 {
	key := [2]int{seq, idx}
	c := rt.taskbars[key]
	if c == nil {
		c = rt.NewI64(1)
		rt.taskbars[key] = c
	}
	return c
}

// replayTask runs, on the A-stream, the skeleton of the task its R-stream
// published as id: stores become prefetches via the usual A-stream access
// policy, nested Task spawns are no-ops, and nested Taskwaits replay the
// published sub-stream.
func (t *Thread) replayTask(id, _ int64) {
	// Copy the record: the R-side may finish the region and recycle the
	// table while this skeleton is still executing.
	rec := t.rt.tasks.records[id]
	prev := t.curTask
	t.curTask = int32(id)
	rec.run(t)
	t.curTask = prev
}

// Taskloop distributes the iterations of [lo, hi) over explicit tasks of
// grain iterations each and waits for their completion, like OpenMP's
// taskloop construct with its implicit taskgroup. grain <= 0 selects
// (hi-lo)/(8*team), at least 1. Every chunk task shares one closure with
// its bounds in the task record, so spawning is allocation-free per task.
func (t *Thread) Taskloop(grain, lo, hi int, body func(t *Thread, i int)) {
	t.TaskloopChunked(grain, lo, hi, func(th *Thread, clo, chi int) {
		for i := clo; i < chi; i++ {
			body(th, i)
		}
	})
}

// TaskloopChunked is Taskloop handing each task its whole chunk
// [clo, chi) at once, for bodies that carry per-chunk private state.
func (t *Thread) TaskloopChunked(grain, lo, hi int, body func(t *Thread, clo, chi int)) {
	if t.isA {
		t.Taskwait() // mirror the construct's implicit wait
		return
	}
	if !t.inRegion {
		if hi > lo {
			body(t, lo, hi)
		}
		return
	}
	if grain <= 0 {
		grain = (hi - lo) / (8 * t.rt.teamSize)
		if grain < 1 {
			grain = 1
		}
	}
	fnN := func(th *Thread, clo, chi int64) { body(th, int(clo), int(chi)) }
	for c := lo; c < hi; c += grain {
		end := c + grain
		if end > hi {
			end = hi
		}
		t.spawn(nil, fnN, int64(c), int64(end))
	}
	t.Taskwait()
}

// TaskSteals reports how many successful task steals R-streams performed.
func (rt *Runtime) TaskSteals() uint64 {
	if rt.tasks == nil {
		return 0
	}
	return rt.tasks.steals
}

// TasksExecuted reports how many task bodies R-streams ran (deferred,
// overflow-undeferred, and budget-exhausted spawns alike).
func (rt *Runtime) TasksExecuted() uint64 {
	if rt.tasks == nil {
		return 0
	}
	return rt.tasks.executed + rt.tasks.inlined
}

// TasksInlined reports how many spawns ran undeferred because the
// explicit-ID budget was exhausted (unregistered, never published).
func (rt *Runtime) TasksInlined() uint64 {
	if rt.tasks == nil {
		return 0
	}
	return rt.tasks.inlined
}
