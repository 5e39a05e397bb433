// Package sim provides a deterministic discrete-event simulation engine
// with coroutine-style execution contexts.
//
// The engine drives a set of contexts (simulated processors), each on a
// goroutine of its own. Exactly one goroutine holds control at any
// instant, and that goroutine runs the event loop: it takes the earliest
// pending event, runs callbacks and spin steps inline, and stops at the
// first wake that needs a context's goroutine. If that context is the one
// parking, the loop simply returns to it, with no channel operation;
// otherwise control passes straight to that context's goroutine. There is
// no engine goroutine in between: Run starts the loop and waits for it to
// end, a parking context runs it inside its park, and a context whose
// body returned runs it before its worker goes back to the pool. Ties in
// event time are broken by sequence number, so a given program produces
// an identical event order on every run. Because only one goroutine runs
// simulator code at a time, code running inside contexts may freely share
// simulator data structures without locks.
//
// Each context has at most one pending wake (its start, an Advance, a
// SpinPark, or its spinner's next poll), kept in its own leaf of a winner
// tree whose root is the next wake. Setting a leaf replays one path to the
// root. Callbacks scheduled with At wait in a small heap beside the tree.
//
// Not every wake transfers control. A context parked in spin mode
// (Context.SpinPark) has its wakes handled by a Spinner that the event
// loop steps on whichever goroutine holds control; the context's
// goroutine runs again only at the wake where the spinner's wait is over.
// A spin-wait of n polls thus resumes its goroutine once instead of n
// times, and schedules the same events it would have scheduled from the
// goroutine.
//
// Dispatch is allocation-free: wakes and callbacks are plain values, and
// the goroutine + channel pair backing each context is pooled across
// engines, so repeated simulation runs reuse the same parked workers
// instead of spawning fresh ones.
package sim

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
)

// Time is a simulation timestamp, measured in processor clock cycles.
type Time = uint64

// key orders events: by time, then by the sequence in which they were
// scheduled, so event order is identical on every run.
type key struct {
	at  Time
	seq uint64
}

func (a key) before(b key) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// event is a callback scheduled with At.
type event struct {
	key
	fn func()
}

// eventHeap is a 4-ary min-heap of callbacks ordered by key. A concrete
// element type keeps push/pop free of interface{} boxing.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) less(i, j int) bool { return h.ev[i].before(h.ev[j].key) }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h.less(i, p) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	root := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // drop the fn reference for the GC
	h.ev = h.ev[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
	return root
}

// wake is a context's pending wake: its key and the context's index in
// Engine.contexts.
type wake struct {
	key
	ctx int
}

// noWake fills the leaf of a context that has no pending wake. It sorts
// after every real wake, since no event is ever scheduled with seq ^0.
var noWake = wake{key: key{at: ^Time(0), seq: ^uint64(0)}}

// wakeTree is a winner tree with one leaf per context. The leaves are the
// second half of the slice, node i's children are nodes 2i and 2i+1, and
// each inner node holds the earlier wake of its two children, so node 1,
// the root, is the next wake. Node 0 is unused.
type wakeTree []wake

// initialLeaves sizes a new engine's wake tree; Spawn doubles it as needed.
const initialLeaves = 16

func newWakeTree(leaves int) wakeTree {
	t := make(wakeTree, 2*leaves)
	for i := range t {
		t[i] = noWake
	}
	return t
}

func (t wakeTree) leaves() int { return len(t) / 2 }

// leaf returns context i's pending wake.
func (t wakeTree) leaf(i int) *wake { return &t[len(t)/2+i] }

// set stores w in context i's leaf and replays the leaf's path to the
// root: one compare per level, and no other leaf moves.
func (t wakeTree) set(i int, w wake) {
	i += len(t) / 2
	t[i] = w
	for ; i > 1; i >>= 1 {
		s := &t[i^1]
		// Subtracting w's key from s's as one 128-bit number borrows
		// exactly when s is earlier; the mask then selects s without a
		// branch to mispredict.
		_, b := bits.Sub64(s.seq, w.seq, 0)
		_, b = bits.Sub64(s.at, w.at, b)
		m := -b
		w.at ^= (w.at ^ s.at) & m
		w.seq ^= (w.seq ^ s.seq) & m
		w.ctx ^= (w.ctx ^ s.ctx) & int(m)
		t[i>>1] = w
	}
}

// grow returns a tree with twice the leaves, holding the same wakes.
func (t wakeTree) grow() wakeTree {
	g := newWakeTree(2 * t.leaves())
	for i := 0; i < t.leaves(); i++ {
		g.set(i, *t.leaf(i))
	}
	return g
}

// Engine is a discrete-event simulator.
type Engine struct {
	now      Time
	seq      uint64
	wakes    wakeTree  // each context's pending wake
	calls    eventHeap // pending At callbacks
	contexts []*Context
	resumed  uint64        // seq of the wake that last resumed a context's goroutine
	failed   *PanicError   // the first panic of a body, Step or callback
	done     chan struct{} // the loop's end is signalled to Run here, and each unwound context to teardown
	running  bool
	count    Counters
}

// Counters are an engine's running totals since NewEngine. Every event is
// a callback, a spin step, or a wake that resumes a context's goroutine:
// a switch when control passes to another goroutine, a resume when the
// parking context is itself the next to run and the loop returns to it.
type Counters struct {
	Events    uint64 // events dispatched: callbacks, spin steps and goroutine wakes
	Switches  uint64 // wakes that passed control to another context's goroutine (teardown excluded)
	Resumes   uint64 // wakes that resumed the parking context on its own goroutine, with no channel operation
	SpinSteps uint64 // wakes a Spinner handled inline, without resuming its context
}

// Counters returns the engine's totals. Read them between runs, or from a
// context or callback of a running engine.
func (e *Engine) Counters() Counters { return e.count }

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{done: make(chan struct{}), wakes: newWakeTree(initialLeaves)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// next returns the key for an event at absolute time at: never earlier
// than now, and ordered after every event already scheduled.
func (e *Engine) next(at Time) key {
	if at < e.now {
		at = e.now
	}
	e.seq++
	return key{at: at, seq: e.seq}
}

// wakeAt sets c's pending wake to absolute time at.
func (e *Engine) wakeAt(c *Context, at Time) {
	e.wakes.set(c.id, wake{key: e.next(at), ctx: c.id})
}

// At schedules fn to run at absolute simulation time at. fn runs in engine
// context and must not park.
func (e *Engine) At(at Time, fn func()) { e.calls.push(event{key: e.next(at), fn: fn}) }

// Spawn creates a context that will begin executing fn at time start.
// Contexts must be spawned before Run (or from a running context or
// callback); fn receives the context for parking operations.
func (e *Engine) Spawn(name string, start Time, fn func(*Context)) *Context {
	w := getWorker()
	c := &Context{eng: e, name: name, id: len(e.contexts), run: w.run, fn: fn}
	w.c = c
	e.contexts = append(e.contexts, c)
	if c.id == e.wakes.leaves() {
		e.wakes = e.wakes.grow()
	}
	e.wakeAt(c, start)
	return c
}

// Run executes events until none remain. It returns an error if
// unfinished contexts remain then (a deadlock: some context parked
// without a scheduled wake-up, which indicates a bug in the caller's
// synchronization code), or a *PanicError as soon as a context's body,
// a Spinner's Step or a callback panics. On both paths the engine tears
// the parked contexts down before returning, so their goroutines are
// reclaimed instead of leaking blocked on a dispatch that will never come.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()
	if c := e.dispatch(); c != nil {
		e.handoff(c)
		<-e.done
	}
	if err := e.failed; err != nil {
		e.teardown()
		return err
	}
	for _, c := range e.contexts {
		if !c.finished {
			err := fmt.Errorf("sim: deadlock: context %q parked with no pending event at t=%d", c.name, e.now)
			e.teardown()
			return err
		}
	}
	return nil
}

// dispatch runs the event loop on the calling goroutine. Callbacks and
// spin steps run inline; at the first wake that needs a context's
// goroutine, dispatch returns that context, whose leaf keeps the wake
// until the context reschedules, finishes, or parks without a wake. It
// returns nil when the run is over: no events remain, or a callback or
// Step panicked. Such a panic is recovered here, wherever the loop runs,
// and recorded as the run's *PanicError (named after the spinner's
// context, or unnamed for a callback): unrecovered, it would unwind the
// body whose park the loop is running in, or kill the process on the
// worker of a finished context.
func (e *Engine) dispatch() (next *Context) {
	var stepping *Context // the context whose Spinner is in Step
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: debug.Stack()}
			if stepping != nil {
				pe.Context = stepping.name
			}
			e.failed, next = pe, nil
		}
	}()
	for {
		w := e.wakes[1]
		if len(e.calls.ev) > 0 && e.calls.ev[0].before(w.key) {
			ev := e.calls.pop()
			e.now = ev.at
			e.count.Events++
			ev.fn()
			continue
		}
		if w.seq == noWake.seq {
			return nil
		}
		e.now = w.at
		e.count.Events++
		c := e.contexts[w.ctx]
		if c.spin != nil {
			e.count.SpinSteps++
			stepping = c
			wait, done := c.spin.Step()
			stepping = nil
			if !done {
				e.wakeAt(c, e.now+wait)
				continue
			}
			c.spin = nil
		}
		e.resumed = w.seq
		return c
	}
}

// handoff passes control to next's goroutine, or back to Run when the run
// is over (next is nil). The caller then blocks, or returns its worker to
// the pool, without touching the engine again.
func (e *Engine) handoff(next *Context) {
	if next == nil {
		e.done <- struct{}{}
		return
	}
	e.count.Switches++
	next.run <- struct{}{}
}

// Close tears down any unfinished contexts, releasing their goroutines back
// to the worker pool. It is a no-op on an engine whose contexts all ran to
// completion; Run invokes it automatically when it detects a deadlock, so
// explicit calls are only needed when an engine is abandoned without being
// run (or after Run returned an unrelated error). Close must not be called
// while Run is executing.
func (e *Engine) Close() {
	if e.running {
		panic("sim: Close called on a running engine")
	}
	e.teardown()
}

// teardown aborts every unfinished context: each is dispatched one last
// time with the abort flag set, unwinds out of its call stack (via the
// abortPark panic recovered by its worker), and signals done.
func (e *Engine) teardown() {
	for _, c := range e.contexts {
		if c.finished {
			continue
		}
		c.aborted = true
		c.run <- struct{}{}
		<-e.done
	}
}

// Finished reports whether every spawned context has completed.
func (e *Engine) Finished() bool {
	for _, c := range e.contexts {
		if !c.finished {
			return false
		}
	}
	return true
}

// ---- Context worker pool ----------------------------------------------------

// worker owns the goroutine and run channel a context executes on. Workers
// are pooled across engines: when a context finishes, its worker parks on
// the free list and the next Spawn (from any engine) reuses it, so the
// per-run cost of standing up a machine does not include goroutine and
// channel churn — and, because aborted contexts unwind back to their
// worker, even deadlocked runs return their goroutines to the pool.
type worker struct {
	run chan struct{}
	c   *Context // context currently bound to this worker
}

// workerPool is a bounded free list rather than a sync.Pool: a sync.Pool
// may drop entries at GC, which would strand each dropped worker's
// goroutine blocked on a run channel nobody holds. Overflow workers simply
// exit their goroutine.
var workerPool struct {
	sync.Mutex
	free []*worker
}

// maxPooledWorkers bounds the free list. Sized for the largest concurrent
// simulation fan-out (64 nodes × 2 procs × a worker-pool of runs).
const maxPooledWorkers = 1024

func getWorker() *worker {
	workerPool.Lock()
	if n := len(workerPool.free); n > 0 {
		w := workerPool.free[n-1]
		workerPool.free[n-1] = nil
		workerPool.free = workerPool.free[:n-1]
		workerPool.Unlock()
		return w
	}
	workerPool.Unlock()
	w := &worker{run: make(chan struct{})}
	go w.loop()
	return w
}

// abortPark is the panic value used to unwind an aborted context out of a
// park point; it never escapes the worker's recover.
type abortPark struct{}

// loop is the worker goroutine: receive a dispatch, run the bound context's
// body to completion (or unwind it on abort), pass control on, then return
// to the pool for the next Spawn.
func (w *worker) loop() {
	for {
		<-w.run
		c := w.c
		if !c.aborted {
			c.runBody()
		}
		c.finish()
		w.c = nil
		workerPool.Lock()
		if len(workerPool.free) >= maxPooledWorkers {
			workerPool.Unlock()
			return
		}
		workerPool.free = append(workerPool.free, w)
		workerPool.Unlock()
	}
}

// runBody executes the context function, absorbing the abort unwind. Any
// other panic is recorded as the run's *PanicError for Run to return:
// re-panicking here, on the worker goroutine, would kill the process
// beyond the reach of any caller's recover.
func (c *Context) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPark); !ok {
				c.eng.failed = &PanicError{Context: c.name, Value: r, Stack: debug.Stack()}
			}
		}
	}()
	c.fn(c)
}

// finish marks the context done and passes control on: back to teardown
// if the context was aborted, and otherwise to wherever the event loop,
// run here on the finished context's goroutine, leads next.
func (c *Context) finish() {
	e := c.eng
	c.finished = true
	if c.aborted {
		e.done <- struct{}{}
		return
	}
	e.wakes.set(c.id, noWake)
	var next *Context
	if e.failed == nil {
		next = e.dispatch()
	}
	e.handoff(next)
}

// PanicError reports a context body, Spinner Step or callback that
// panicked. Run returns it after tearing the other contexts down.
type PanicError struct {
	Context string // name of the panicking context; empty for a callback
	Value   any    // the value passed to panic
	Stack   []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	if e.Context == "" {
		return fmt.Sprintf("sim: callback panicked: %v", e.Value)
	}
	return fmt.Sprintf("sim: context %q panicked: %v", e.Context, e.Value)
}

// Context is a simulated thread of execution managed by an Engine.
type Context struct {
	eng      *Engine
	name     string
	id       int           // index in eng.contexts and of its wake leaf
	run      chan struct{} // the bound worker's dispatch channel
	fn       func(*Context)
	spin     Spinner // non-nil while parked in spin mode
	finished bool
	aborted  bool
}

// Spinner is a wait that runs in engine context while its context is
// parked in spin mode (see SpinPark).
type Spinner interface {
	// Step runs at each wake of the parked context. It returns done to
	// resume the context's goroutine at this same event, or else the
	// cycles until the next wake, which the engine schedules as Advance
	// would. Step must not park.
	Step() (wait Time, done bool)
}

// Name returns the context's debug name.
func (c *Context) Name() string { return c.name }

// Engine returns the owning engine.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulation time.
func (c *Context) Now() Time { return c.eng.now }

// park suspends the context until its next wake, running the event loop on
// the context's own goroutine meanwhile. When that wake is the next one
// that needs a goroutine, park returns with no channel operation;
// otherwise it hands control on and blocks until a later loop hands it
// back. A context that parks without setting a wake first gives up its
// leaf, which still holds the wake that resumed it. If the engine is
// tearing down, the context unwinds instead of resuming.
func (c *Context) park() {
	e := c.eng
	if e.wakes.leaf(c.id).seq == e.resumed {
		e.wakes.set(c.id, noWake)
	}
	next := e.dispatch()
	if next == c {
		e.count.Resumes++
		return
	}
	e.handoff(next)
	<-c.run
	if c.aborted {
		panic(abortPark{})
	}
}

// Advance parks the context for d cycles of simulated time.
func (c *Context) Advance(d Time) {
	if d == 0 {
		return
	}
	c.eng.wakeAt(c, c.eng.now+d)
	c.park()
}

// SpinPark parks the context for d > 0 cycles in spin mode: at that wake
// and every later one the engine calls s.Step instead of resuming the
// goroutine, and resumes the goroutine only at the wake where Step
// reports done. A zero-length phase must run inline, before SpinPark.
func (c *Context) SpinPark(d Time, s Spinner) {
	c.spin = s
	c.eng.wakeAt(c, c.eng.now+d)
	c.park()
}

// Resource models a unit that can serve one transaction at a time, with
// queueing delay when busy (contention at network ports, buses, and memory
// controllers is modelled this way).
type Resource struct {
	busyUntil Time
	busyTotal Time
	waitTotal Time
	uses      uint64
}

// NewResource returns an idle resource.
func NewResource() *Resource { return &Resource{} }

// Acquire reserves the resource for occ cycles starting no earlier than
// now, and returns the total delay from now until the reservation ends
// (queueing wait plus occupancy).
func (r *Resource) Acquire(now, occ Time) Time {
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + occ
	r.busyTotal += occ
	r.waitTotal += start - now
	r.uses++
	return r.busyUntil - now
}

// Uses returns how many times the resource was acquired.
func (r *Resource) Uses() uint64 { return r.uses }

// BusyUntil returns the time at which the last reservation ends.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// BusyTotal returns total cycles the resource was occupied.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// WaitTotal returns total queueing cycles callers spent waiting.
func (r *Resource) WaitTotal() Time { return r.waitTotal }
