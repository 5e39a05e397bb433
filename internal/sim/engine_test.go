package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// quickCheck applies the package's default property-test budget.
func quickCheck(f interface{}) error {
	return quick.Check(f, &quick.Config{MaxCount: 100})
}

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced with no events: %d", e.Now())
	}
}

func TestCallbackOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 1) })
	e.At(30, func() { order = append(order, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-broken order = %v, want insertion order", order)
		}
	}
}

func TestContextAdvance(t *testing.T) {
	e := NewEngine()
	var at1, at2 Time
	e.Spawn("p", 0, func(c *Context) {
		c.Advance(100)
		at1 = c.Now()
		c.Advance(50)
		at2 = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 100 || at2 != 150 {
		t.Fatalf("advance times = %d, %d; want 100, 150", at1, at2)
	}
}

func TestContextStartOffset(t *testing.T) {
	e := NewEngine()
	var started Time
	e.Spawn("late", 42, func(c *Context) { started = c.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 42 {
		t.Fatalf("start time = %d, want 42", started)
	}
}

func TestTwoContextsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", 0, func(c *Context) {
		trace = append(trace, "a0")
		c.Advance(10)
		trace = append(trace, "a10")
		c.Advance(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", 0, func(c *Context) {
		trace = append(trace, "b0")
		c.Advance(15)
		trace = append(trace, "b15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Spawn("waiter", 0, func(c *Context) {
		// Every park through the public API schedules its own wake-up,
		// so a context cannot deadlock itself here; this test checks that
		// a normal completion is not reported as a deadlock
		// (TestDeadlockReported builds a real one).
		c.Advance(1)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("unexpected deadlock report: %v", err)
	}
	if !e.Finished() {
		t.Fatal("context did not finish")
	}
}

func TestManyContextsDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 32; i++ {
			i := i
			e.Spawn("p", Time(i%4), func(c *Context) {
				c.Advance(Time(100 - i))
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ordering: %v vs %v", a, b)
		}
	}
}

// deadlockRun drives an engine into the deadlock path: the context parks
// without a scheduled wake-up (the synchronization bug Run must report).
func deadlockRun(t *testing.T) {
	t.Helper()
	e := NewEngine()
	e.Spawn("stuck", 0, func(c *Context) {
		c.Advance(1)
		c.park()
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	if !e.Finished() {
		t.Fatal("teardown left unfinished contexts")
	}
}

func TestDeadlockReported(t *testing.T) { deadlockRun(t) }

// checkNoLeak runs run once to warm the worker pool, then 50 times more,
// and fails if the goroutine count grew: every run must return its
// workers to the pool, however it ended.
func checkNoLeak(t *testing.T, what string, run func(*testing.T)) {
	t.Helper()
	run(t)
	runtime.GC()
	before := runtime.NumGoroutine()
	const runs = 50
	for i := 0; i < runs; i++ {
		run(t)
	}
	runtime.GC()
	// Pooled workers persist by design (bounded), so allow a little slack —
	// but nothing close to one leaked goroutine per run.
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew %d -> %d over %d %s", before, after, runs, what)
	}
}

// Repeated deadlock-path runs must not accumulate goroutines: the engine
// teardown unwinds parked contexts and their workers return to the pool.
func TestDeadlockTeardownDoesNotLeakGoroutines(t *testing.T) {
	checkNoLeak(t, "deadlock runs", deadlockRun)
}

// Teardown unwinds the context stack, so deferred cleanups inside the
// context body still execute.
func TestTeardownRunsDeferredCleanups(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("p", 0, func(c *Context) {
		defer func() { cleaned = true }()
		c.Advance(1)
		c.park()
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run during teardown")
	}
}

// Close on an engine that never ran must release contexts whose bodies
// never started, without executing them.
func TestCloseReleasesUnstartedContexts(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("idle", 0, func(c *Context) { ran = true })
	e.Close()
	if ran {
		t.Fatal("aborted context body ran")
	}
	if !e.Finished() {
		t.Fatal("context not finished after Close")
	}
}

func TestCloseAfterCleanRunIsNoop(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", 0, func(c *Context) { c.Advance(5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if e.Now() != 5 {
		t.Fatalf("Close disturbed engine state: now=%d", e.Now())
	}
}

// The event dispatch hot path must not allocate: scheduling, popping, and
// the park/resume handshake are all reuse of preallocated state. The
// per-run budget covers engine construction only and must not scale with
// the event count.
func TestEventDispatchAllocFree(t *testing.T) {
	// Warm the worker pool so the first-ever goroutine spawn is excluded.
	warm := NewEngine()
	warm.Spawn("warm", 0, func(c *Context) { c.Advance(1) })
	if err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	const events = 2000
	avg := testing.AllocsPerRun(10, func() {
		e := NewEngine()
		e.Spawn("p", 0, func(c *Context) {
			for i := 0; i < events; i++ {
				c.Advance(1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 16 {
		t.Fatalf("engine run with %d events cost %.0f allocs; want setup-only (<= 16)", events, avg)
	}
}

func TestResourceUncontended(t *testing.T) {
	r := NewResource()
	d := r.Acquire(100, 30)
	if d != 30 {
		t.Fatalf("uncontended acquire delay = %d, want 30", d)
	}
	if r.WaitTotal() != 0 {
		t.Fatalf("wait total = %d, want 0", r.WaitTotal())
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource()
	if d := r.Acquire(0, 50); d != 50 {
		t.Fatalf("first acquire = %d", d)
	}
	// Second request arrives at t=10 while busy until 50: waits 40, then 50.
	if d := r.Acquire(10, 50); d != 90 {
		t.Fatalf("queued acquire = %d, want 90", d)
	}
	if r.WaitTotal() != 40 {
		t.Fatalf("wait total = %d, want 40", r.WaitTotal())
	}
	if r.Uses() != 2 {
		t.Fatalf("uses = %d, want 2", r.Uses())
	}
	if r.BusyTotal() != 100 {
		t.Fatalf("busy total = %d, want 100", r.BusyTotal())
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource()
	r.Acquire(0, 10)
	// Arrives long after the resource went idle: no queueing.
	if d := r.Acquire(1000, 10); d != 10 {
		t.Fatalf("post-idle acquire = %d, want 10", d)
	}
}

func TestCallbackDuringContextRun(t *testing.T) {
	e := NewEngine()
	var cbAt Time
	var ctxAt Time
	e.At(50, func() { cbAt = e.Now() })
	e.Spawn("p", 0, func(c *Context) {
		c.Advance(100)
		ctxAt = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cbAt != 50 || ctxAt != 100 {
		t.Fatalf("cbAt=%d ctxAt=%d", cbAt, ctxAt)
	}
}

func TestNoConcurrentContextExecution(t *testing.T) {
	// With N contexts advancing in lockstep, an atomic counter incremented
	// and decremented around each "critical" window must never exceed 1.
	e := NewEngine()
	var inside int32
	var maxSeen int32
	for i := 0; i < 16; i++ {
		e.Spawn("p", 0, func(c *Context) {
			for j := 0; j < 100; j++ {
				n := atomic.AddInt32(&inside, 1)
				if n > maxSeen {
					maxSeen = n
				}
				atomic.AddInt32(&inside, -1)
				c.Advance(1)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxSeen != 1 {
		t.Fatalf("observed %d contexts executing concurrently", maxSeen)
	}
}

// Property: callbacks scheduled at arbitrary times run in nondecreasing
// time order, and the engine's clock never goes backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, at := range times {
			at := Time(at)
			e.At(at, func() { seen = append(seen, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

// Property: contexts advancing by arbitrary step sequences finish at the
// sum of their steps.
func TestPropertyAdvanceSums(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		e := NewEngine()
		var want, got Time
		for _, s := range steps {
			want += Time(s)
		}
		e.Spawn("p", 0, func(c *Context) {
			for _, s := range steps {
				c.Advance(Time(s))
			}
			got = c.Now()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return got == want
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

// panicRun drives an engine whose second context panics mid-run while
// the first is parked: Run must return the panic as an error naming the
// context and value, and tear the parked context down.
func panicRun(t *testing.T) {
	t.Helper()
	e := NewEngine()
	e.Spawn("parked", 0, func(c *Context) { c.Advance(100) })
	e.Spawn("boom", 0, func(c *Context) {
		c.Advance(1)
		panic("kernel bug")
	})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Context != "boom" || pe.Value != "kernel bug" {
		t.Fatalf("Run = %v, want the panic of context boom", err)
	}
	if !strings.Contains(err.Error(), `"boom"`) || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("error %q does not name the context and value", err)
	}
	if !strings.Contains(string(pe.Stack), "panicRun") {
		t.Fatalf("recorded stack does not reach the panicking body:\n%s", pe.Stack)
	}
	if !e.Finished() {
		t.Fatal("panic left unfinished contexts")
	}
}

// A panicking context fails its run instead of killing the process, and
// repeated panicking runs do not accumulate goroutines.
func TestContextPanicFailsRun(t *testing.T) {
	checkNoLeak(t, "panicking runs", panicRun)
}

// wantPanic checks that Run failed with a *PanicError naming context (empty
// for a callback) and value, after tearing every context down, and returns
// the recorded stack.
func wantPanic(t *testing.T, e *Engine, err error, context string, value any) string {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Context != context || pe.Value != value {
		t.Fatalf("Run = %v, want a *PanicError of context %q with value %v", err, context, value)
	}
	if !e.Finished() {
		t.Fatal("panic left unfinished contexts")
	}
	return string(pe.Stack)
}

// ticker returns a body that advances one cycle n times, so its goroutine
// runs the event loop at every cycle.
func ticker(n int) func(*Context) {
	return func(c *Context) {
		for i := 0; i < n; i++ {
			c.Advance(1)
		}
	}
}

// A callback runs on whichever goroutine holds control. One that panics
// inside a context's park fails the run as a callback's *PanicError: it
// must not unwind the parked body as if the body had panicked.
func TestCallbackPanicOnContextGoroutine(t *testing.T) {
	checkNoLeak(t, "callback panics on a context's goroutine", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("parked", 0, func(c *Context) { c.Advance(100) })
		e.Spawn("ticker", 0, ticker(10))
		e.At(5, func() { panic("callback bug") })
		err := e.Run()
		stack := wantPanic(t, e, err, "", "callback bug")
		if !strings.Contains(stack, "ticker") || !strings.Contains(stack, "park") {
			t.Fatalf("callback did not panic inside the ticker's park:\n%s", stack)
		}
		if got := err.Error(); got != "sim: callback panicked: callback bug" {
			t.Fatalf("error text %q does not say a callback panicked", got)
		}
	})
}

// A context whose body returned runs the event loop on its worker before
// the worker goes back to the pool, outside runBody's recover: a callback
// that panics there still fails the run instead of killing the process.
func TestCallbackPanicAfterBodyReturns(t *testing.T) {
	checkNoLeak(t, "callback panics on a finished context's worker", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("parked", 0, func(c *Context) { c.Advance(100) })
		e.Spawn("short", 0, func(c *Context) { c.Advance(5) })
		e.At(7, func() { panic("callback bug") })
		stack := wantPanic(t, e, e.Run(), "", "callback bug")
		if !strings.Contains(stack, "finish") || strings.Contains(stack, "runBody") {
			t.Fatalf("callback did not panic on the finished context's worker:\n%s", stack)
		}
	})
}

// countdown is a Spinner that waits gap cycles between wakes and is done
// at its nth; a negative boom panics at that wake instead.
type countdown struct {
	n, boom int
	gap     Time
	steps   int
}

func (s *countdown) Step() (Time, bool) {
	s.steps++
	if s.steps == -s.boom {
		panic("spinner bug")
	}
	return s.gap, s.steps == s.n
}

// delta returns the counts between two readings of Counters.
func delta(after, before Counters) Counters {
	return Counters{
		Events:    after.Events - before.Events,
		Switches:  after.Switches - before.Switches,
		Resumes:   after.Resumes - before.Resumes,
		SpinSteps: after.SpinSteps - before.SpinSteps,
	}
}

// A context in spin mode gets control back once per episode, however many
// wakes the spinner handles: an n-wake spin costs n events and n spin
// steps but one transfer of control, and resumes at the wake where the
// spinner is done. A lone spinner is stepped on its own goroutine, so that
// transfer is a resume with no channel operation.
func TestSpinParkSwitchesOnce(t *testing.T) {
	const n = 50
	e := NewEngine()
	s := &countdown{n: n, gap: 3}
	var resumed Time
	var during Counters
	e.Spawn("spinner", 0, func(c *Context) {
		before := c.Engine().Counters()
		c.SpinPark(3, s)
		resumed = c.Now()
		during = delta(c.Engine().Counters(), before)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if during.Events != n || during.SpinSteps != n || during.Switches+during.Resumes != 1 {
		t.Fatalf("spin episode counted %+v, want %d events, %d spin steps and one switch or resume", during, n, n)
	}
	if want := Time(3 * n); resumed != want {
		t.Fatalf("context resumed at t=%d, want %d", resumed, want)
	}
	if got, want := e.Counters(), (Counters{Events: n + 1, Switches: 1, Resumes: 1, SpinSteps: n}); got != want {
		t.Fatalf("run counted %+v, want %+v (a switch to start, a resume to end the episode)", got, want)
	}
}

// Spinner wakes interleave with other events by (at, seq) exactly as the
// goroutine's own Advance calls would.
func TestSpinParkKeepsEventOrder(t *testing.T) {
	run := func(spin bool) []string {
		e := NewEngine()
		var trace []string
		e.Spawn("a", 0, func(c *Context) {
			if spin {
				c.SpinPark(4, &countdown{n: 3, gap: 4})
			} else {
				for i := 0; i < 3; i++ {
					c.Advance(4)
				}
			}
			trace = append(trace, fmt.Sprintf("a@%d", c.Now()))
		})
		e.Spawn("b", 0, func(c *Context) {
			for i := 0; i < 4; i++ {
				c.Advance(4)
				trace = append(trace, fmt.Sprintf("b@%d", c.Now()))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	if got, want := fmt.Sprint(run(true)), fmt.Sprint(run(false)); got != want {
		t.Fatalf("spin-mode order %s, goroutine order %s", got, want)
	}
}

// A panic inside Step fails the run as that context's *PanicError, like a
// body panic: Run returns instead of unwinding, every context is torn
// down, and repeated runs do not leak goroutines.
func TestSpinnerPanicFailsRun(t *testing.T) {
	checkNoLeak(t, "spinner-panic runs", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("parked", 0, func(c *Context) { c.Advance(100) })
		e.Spawn("spinner", 0, func(c *Context) { c.SpinPark(1, &countdown{n: 10, boom: -3, gap: 1}) })
		if stack := wantPanic(t, e, e.Run(), "spinner", "spinner bug"); !strings.Contains(stack, "countdown") {
			t.Fatalf("recorded stack does not reach the panicking Step:\n%s", stack)
		}
	})
}

// A spinner is stepped on whichever goroutine holds control. A Step that
// panics on another context's goroutine still fails the run as the
// spinner's *PanicError.
func TestSpinnerPanicOnAnotherGoroutine(t *testing.T) {
	checkNoLeak(t, "spinner panics on another context's goroutine", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("spinner", 0, func(c *Context) { c.SpinPark(1, &countdown{n: 10, boom: -3, gap: 2}) })
		e.Spawn("ticker", 0, ticker(100))
		stack := wantPanic(t, e, e.Run(), "spinner", "spinner bug")
		if !strings.Contains(stack, "countdown") || !strings.Contains(stack, "ticker") {
			t.Fatalf("Step did not panic on the ticker's goroutine:\n%s", stack)
		}
	})
}

// A context parked in spin mode with no pending wake is a deadlock like
// any other: Run reports it and teardown unwinds the context, running its
// deferred cleanups.
func TestSpinParkedDeadlockTearsDown(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("stuck", 0, func(c *Context) {
		defer func() { cleaned = true }()
		c.spin = &countdown{n: 1}
		c.park()
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	if !cleaned || !e.Finished() {
		t.Fatalf("teardown of the spin-parked context: cleaned=%v finished=%v", cleaned, e.Finished())
	}
}

// closeSpinParked leaves a context parked in spin mode with its first
// wake pending, then closes the engine: the context must unwind without
// being stepped or resumed. The test plays Run's part by hand. The
// spinner's park hands control to a gate context, which holds it instead
// of running the event loop on, so nothing steps the spinner before Close
// tears both contexts down.
func closeSpinParked(t *testing.T) {
	e := NewEngine()
	s := &countdown{n: 5, gap: 1}
	resumed := false
	c := e.Spawn("spinner", 0, func(c *Context) {
		c.SpinPark(5, s)
		resumed = true
	})
	holding := make(chan struct{})
	e.Spawn("gate", 1, func(g *Context) {
		close(holding)
		<-g.run // hold control until teardown aborts the gate
		panic(abortPark{})
	})
	e.handoff(e.dispatch()) // start the spinner, as Run would
	<-holding
	if w := e.wakes.leaf(c.id); c.spin == nil || w.at != 5 {
		t.Fatalf("context not parked in spin mode with its wake pending (spin=%v, wake at t=%d)", c.spin, w.at)
	}
	e.Close()
	if resumed || s.steps != 0 || !e.Finished() {
		t.Fatalf("Close: resumed=%v steps=%d finished=%v", resumed, s.steps, e.Finished())
	}
}

// Close unwinds a context parked in spin mode and returns its worker to
// the pool: repeated closes do not accumulate goroutines.
func TestCloseReleasesSpinParkedContext(t *testing.T) {
	checkNoLeak(t, "closes of a spin-parked context", closeSpinParked)
}
