// Package sim provides a deterministic discrete-event simulation engine
// with coroutine-style execution contexts.
//
// The engine drives a set of contexts (simulated processors). Exactly one
// context runs at any instant: the engine pops the earliest event from its
// heap and hands it to the owning context, and the context runs real Go
// code until it needs simulated time to pass, at which point it parks
// itself and control returns to the engine. Ties in event time are broken
// by event sequence number, so a given program produces an identical event
// order on every run. Because only one context executes at a time, code
// running inside contexts may freely share simulator data structures
// without locks.
//
// Not every event transfers control. A context parked in spin mode
// (Context.SpinPark) has its wakes handled by a Spinner that the engine
// steps on its own goroutine; the context's goroutine runs again only at
// the wake where the spinner's wait is over. A spin-wait of n polls thus
// costs one goroutine switch instead of n, and schedules the same events
// it would have scheduled from the goroutine.
//
// The event heap and context plumbing are allocation-free on the hot path:
// events are plain values in a concrete 4-ary heap (no container/heap
// interface boxing), and the goroutine + channel pair backing each context
// is pooled across engines, so repeated simulation runs reuse the same
// parked workers instead of spawning fresh ones.
package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Time is a simulation timestamp, measured in processor clock cycles.
type Time = uint64

// event is a scheduled occurrence: either waking a parked context or
// running a callback at a given time.
type event struct {
	at  Time
	seq uint64
	ctx *Context
	fn  func()
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). A concrete
// element type keeps Push/Pop free of interface{} boxing — with
// container/heap every scheduled event cost two heap allocations, which
// dominated the simulator's allocation profile. The wider fan-out also
// halves the tree depth versus a binary heap, trading cheap sibling
// comparisons for pointer-chasing sift steps.
type eventHeap struct {
	ev []event
}

// less orders events by time, breaking ties by insertion sequence so event
// order is identical on every run.
func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

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
	h.ev[n] = event{} // drop fn/ctx references for the GC
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

// initialHeapCap sizes the event slice so steady-state simulations (a few
// pending events per context) never grow it.
const initialHeapCap = 256

// Engine is a discrete-event simulator.
type Engine struct {
	now      Time
	seq      uint64
	events   eventHeap
	contexts []*Context
	yield    chan struct{} // contexts signal the engine here when parking
	running  bool
	count    Counters
}

// Counters are an engine's running totals since NewEngine.
type Counters struct {
	Events    uint64 // events popped from the heap
	Switches  uint64 // transfers of control to a context's goroutine (teardown excluded)
	SpinSteps uint64 // wakes a Spinner handled in engine context
}

// Counters returns the engine's totals. Read them between runs, or from a
// context or callback of a running engine.
func (e *Engine) Counters() Counters { return e.count }

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{
		yield:  make(chan struct{}),
		events: eventHeap{ev: make([]event, 0, initialHeapCap)},
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// schedule enqueues an event at absolute time at.
func (e *Engine) schedule(at Time, ctx *Context, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, ctx: ctx, fn: fn})
}

// At schedules fn to run at absolute simulation time at. fn runs in engine
// context and must not park.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, nil, fn) }

// Spawn creates a context that will begin executing fn at time start.
// Contexts must be spawned before Run (or from a running context or
// callback); fn receives the context for parking operations.
func (e *Engine) Spawn(name string, start Time, fn func(*Context)) *Context {
	w := getWorker()
	c := &Context{eng: e, name: name, run: w.run, fn: fn}
	w.c = c
	e.contexts = append(e.contexts, c)
	e.schedule(start, c, nil)
	return c
}

// Run executes events until the heap is empty. It returns an error if
// unfinished contexts remain when the heap drains (a deadlock: some context
// parked without a scheduled wake-up, which indicates a bug in the caller's
// synchronization code), or a *PanicError as soon as a context's body
// panics. On both paths the engine tears the parked contexts down before
// returning, so their goroutines are reclaimed instead of leaking blocked
// on a dispatch that will never come.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events.ev) > 0 {
		ev := e.events.pop()
		e.now = ev.at
		e.count.Events++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		c := ev.ctx
		if c.finished {
			continue
		}
		if c.spin != nil {
			e.count.SpinSteps++
			wait, done := c.step()
			if c.panicked != nil {
				e.teardown()
				return c.panicked
			}
			if !done {
				e.schedule(e.now+wait, c, nil)
				continue
			}
			c.spin = nil
		}
		e.count.Switches++
		c.run <- struct{}{}
		<-e.yield
		if c.panicked != nil {
			e.teardown()
			return c.panicked
		}
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
// abortPark panic recovered by its worker), and yields back finished.
func (e *Engine) teardown() {
	for _, c := range e.contexts {
		if c.finished {
			continue
		}
		c.aborted = true
		c.run <- struct{}{}
		<-e.yield
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
// body to completion (or unwind it on abort), yield, then return to the
// pool for the next Spawn.
func (w *worker) loop() {
	for {
		<-w.run
		c := w.c
		if !c.aborted {
			c.runBody()
		}
		c.finished = true
		c.eng.yield <- struct{}{}
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
// other panic is recorded on the context for Run to return: re-panicking
// here, on the worker goroutine, would kill the process beyond the reach
// of any caller's recover.
func (c *Context) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPark); !ok {
				c.panicked = &PanicError{Context: c.name, Value: r, Stack: debug.Stack()}
			}
		}
	}()
	c.fn(c)
}

// PanicError reports a context body that panicked. Run returns it after
// tearing the other contexts down.
type PanicError struct {
	Context string // name of the panicking context
	Value   any    // the value passed to panic
	Stack   []byte // the panicking goroutine's stack
}

// step runs the context's Spinner at a wake. A panic in Step is recorded
// on the context as its *PanicError, as runBody records a body's, so it
// fails the run instead of unwinding Engine.Run.
func (c *Context) step() (wait Time, done bool) {
	defer func() {
		if r := recover(); r != nil {
			c.panicked = &PanicError{Context: c.name, Value: r, Stack: debug.Stack()}
		}
	}()
	return c.spin.Step()
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: context %q panicked: %v", e.Context, e.Value)
}

// Context is a simulated thread of execution managed by an Engine.
type Context struct {
	eng      *Engine
	name     string
	run      chan struct{} // the bound worker's dispatch channel
	fn       func(*Context)
	spin     Spinner // non-nil while parked in spin mode
	finished bool
	aborted  bool
	panicked *PanicError // set when the body or its Spinner panicked
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

// park suspends the context until the engine dispatches it again. If the
// engine is tearing down, the context unwinds instead of resuming.
func (c *Context) park() {
	c.eng.yield <- struct{}{}
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
	c.eng.schedule(c.eng.now+d, c, nil)
	c.park()
}

// SpinPark parks the context for d > 0 cycles in spin mode: at that wake
// and every later one the engine calls s.Step instead of switching to the
// goroutine, and returns to the goroutine only at the wake where Step
// reports done. A zero-length phase must run inline, before SpinPark.
func (c *Context) SpinPark(d Time, s Spinner) {
	c.spin = s
	c.eng.schedule(c.eng.now+d, c, nil)
	c.park()
}

// Resource models a unit that can serve one transaction at a time, with
// queueing delay when busy (contention at network ports, buses, and memory
// controllers is modelled this way).
type Resource struct {
	name      string
	busyUntil Time
	busyTotal Time
	waitTotal Time
	uses      uint64
}

// NewResource returns a named idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

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

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }
