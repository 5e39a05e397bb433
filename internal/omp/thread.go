package omp

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Thread is one OpenMP thread of execution bound to a processor. In
// slipstream mode each logical thread exists twice with the same ID: an
// R-stream on CPU 0 and an A-stream shadow on CPU 1 of the same CMP
// (paper §3.1: "the same ID should be returned to processes sharing a
// CMP").
type Thread struct {
	rt  *Runtime
	id  int
	P   *machine.Proc
	isA bool

	// Region-local state.
	inRegion   bool
	regionCfg  core.Config
	ssActive   bool
	abandoned  bool // A-stream absorbed a recovery: fast-skip to region end
	singleIdx  int
	reduceIdx  int
	loopIdx    int
	orderedIdx int
	taskBarIdx int
	curTask    int32 // currently executing task ID (implicit = id+1)
	barSense   int64
	lastSeq    int64
}

// ID returns the OpenMP thread number (shared by an A–R pair).
func (t *Thread) ID() int { return t.id }

// Num returns the team size (omp_get_num_threads).
func (t *Thread) Num() int { return t.rt.teamSize }

// IsA reports whether this is a speculative A-stream.
func (t *Thread) IsA() bool { return t.isA }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Compute charges n cycles of private computation. Abandoned A-streams
// skip work at zero cost (recovery fast-forwards them to the R-stream's
// position).
func (t *Thread) Compute(n sim.Time) {
	if t.abandoned {
		return
	}
	t.P.Compute(n)
}

// ---- Shared-memory accesses ------------------------------------------------

// LdF reads element i of a shared float64 array with full timing.
func (t *Thread) LdF(a *shmem.F64, i int) float64 {
	if t.abandoned {
		return a.Get(i)
	}
	t.P.Load(a.Addr(i))
	return a.Get(i)
}

// StF writes element i of a shared float64 array. For an A-stream the
// store is skipped or converted to an exclusive prefetch (§2, §5.1); the
// backing store is never modified, so A-streams cannot corrupt shared
// state regardless of how far they have speculated.
func (t *Thread) StF(a *shmem.F64, i int, v float64) {
	if t.isA {
		t.aStore(a.Addr(i))
		return
	}
	t.P.Store(a.Addr(i))
	a.Set(i, v)
}

// LdI reads element i of a shared int64 array with full timing.
func (t *Thread) LdI(a *shmem.I64, i int) int64 {
	if t.abandoned {
		return a.Get(i)
	}
	t.P.Load(a.Addr(i))
	return a.Get(i)
}

// StI writes element i of a shared int64 array (A-stream: skip/prefetch).
func (t *Thread) StI(a *shmem.I64, i int, v int64) {
	if t.isA {
		t.aStore(a.Addr(i))
		return
	}
	t.P.Store(a.Addr(i))
	a.Set(i, v)
}

// aStore applies the A-stream store policy to addr.
func (t *Thread) aStore(addr shmem.Addr) {
	if t.abandoned {
		return
	}
	if t.rt.SS.AStoreAction(t.P) == core.StorePrefetch {
		t.P.Prefetch(addr, true)
	}
}

// fetchAdd is a timed atomic fetch-and-add on a shared cell. The
// read-modify-write of the backing store happens at the instant the RMW
// completes, so it is linearizable under the simulator's cooperative
// scheduling.
func (t *Thread) fetchAdd(a *shmem.I64, i int, d int64) int64 {
	t.P.RMW(a.Addr(i))
	old := a.Get(i)
	a.Set(i, old+d)
	return old
}

// ---- Synchronization constructs ---------------------------------------------

// Barrier synchronizes the team. R-streams run the runtime's
// sense-reversing barrier with slipstream token hooks at entry and exit;
// A-streams skip the barrier by consuming a token (Figure 1).
func (t *Thread) Barrier() {
	rt := t.rt
	if t.isA {
		if t.abandoned {
			return
		}
		if rt.SS.ABarrier(t.P) {
			t.abandoned = true
		}
		return
	}
	if t.ssActive {
		rt.SS.RBarrierEnter(t.P, t.regionCfg)
		if t.regionCfg.Type == core.GlobalSync {
			// Global sync: the token is inserted "before exiting the
			// barrier" (§2.2) — at the barrier's completion instant — so
			// register this R-stream with the completion hook instead of
			// inserting after its own wake-up.
			rt.g0Pending = append(rt.g0Pending, t.P)
		}
	}
	t.teamBarrier()
}

// teamBarrier is a centralized sense-reversing barrier on shared memory.
func (t *Thread) teamBarrier() {
	rt := t.rt
	n := int64(rt.teamSize)
	old := t.P.SetCategory(stats.CatBarrier)
	mySense := 1 - t.barSense
	if t.fetchAdd(rt.barCount, 0, 1)+1 == n {
		// Global completion: pending global-sync tokens materialize in
		// the pair registers now, while the other R-streams are still
		// paying their wake-up misses.
		for _, p := range rt.g0Pending {
			rt.SS.InsertTokenAt(p)
		}
		rt.g0Pending = rt.g0Pending[:0]
		t.P.Store(rt.barCount.Addr(0))
		rt.barCount.Set(0, 0)
		t.P.Store(rt.barSense.Addr(0))
		rt.barSense.Set(0, mySense)
	} else {
		t.P.SpinLoad(stats.CatBarrier, rt.barSense.Addr(0), func() bool { return rt.barSense.Get(0) == mySense })
	}
	t.barSense = mySense
	t.P.SetCategory(old)
}

// Critical executes body in the unnamed critical section. A-streams skip
// critical sections: prefetching lock-protected data would only cause
// unnecessary migration (§3.1 item 5).
func (t *Thread) Critical(body func()) { t.CriticalNamed("", body) }

// CriticalNamed executes body under the named critical section's lock.
func (t *Thread) CriticalNamed(name string, body func()) {
	if t.isA {
		return
	}
	l := t.rt.critLock(name)
	t.lockAcquire(l, stats.CatLock)
	body()
	t.lockRelease(l)
}

// critLock returns (lazily creating) the lock for a named critical section.
func (rt *Runtime) critLock(name string) *Lock {
	l := rt.critLocks[name]
	if l == nil {
		l = rt.NewLock()
		rt.critLocks[name] = l
	}
	return l
}

// AtomicAddF atomically adds v to a shared cell. The A-stream executes the
// construct as an exclusive prefetch of the target (§3.1 item 4: data
// prefetched by the A-stream are highly likely not to be migrated) without
// committing the update.
func (t *Thread) AtomicAddF(a *shmem.F64, i int, v float64) {
	if t.isA {
		if !t.abandoned {
			t.P.Prefetch(a.Addr(i), true)
		}
		return
	}
	t.P.RMW(a.Addr(i))
	a.Set(i, a.Get(i)+v)
}

// Single executes body on the first team thread to arrive (no implied
// barrier here; pair it with Barrier for the default OpenMP semantics).
// A-streams skip single sections: there is no way for an A-stream to know
// whether its own R-stream will win the race (§3.1 item 1).
func (t *Thread) Single(body func()) {
	idx := t.singleIdx
	t.singleIdx++
	if t.isA || t.abandoned {
		return
	}
	cell := t.rt.singleCell(int(t.lastSeq), idx)
	if t.fetchAdd(cell, 0, 1) == 0 {
		body()
	}
}

// singleCell returns the arrival counter for a single construct occurrence.
func (rt *Runtime) singleCell(seq, idx int) *shmem.I64 {
	key := [2]int{seq, idx}
	c := rt.singles[key]
	if c == nil {
		c = rt.NewI64(1)
		rt.singles[key] = c
	}
	return c
}

// Master executes body on thread 0 only. Unlike single, the executor is
// known a priori, so the master's A-stream executes the section too (§3.1
// item 2) — its shared stores are still skipped or converted.
func (t *Thread) Master(body func()) {
	if t.id != 0 || t.abandoned {
		return
	}
	body()
}

// Sections distributes the given section bodies over the team with a
// static assignment policy, under which A-streams can run ahead (§3.1 item
// 6: dynamic assignment would force an A–R synchronization at the start).
// It ends with the construct's implied barrier.
func (t *Thread) Sections(bodies ...func()) {
	for s := range bodies {
		if s%t.rt.teamSize == t.id && !t.abandoned {
			bodies[s]()
		}
	}
	t.Barrier()
}

// SectionsDynamic distributes sections first-come-first-served. Because
// the assignment is timing-dependent, the start of each section implies a
// synchronization between the R-stream and its A-stream (§3.1 item 6): the
// construct reuses the dynamic-scheduling decision handoff.
func (t *Thread) SectionsDynamic(bodies ...func()) {
	t.ForSched(Dynamic, 1, 0, len(bodies), false, func(s int) { bodies[s]() })
}

// ForOrdered is a worksharing loop (static schedule) whose body may call
// its ordered argument to run a function in strict iteration order, like
// OpenMP's ordered clause + construct. The ordered region serializes
// iterations, so A-streams skip it the way they skip critical sections.
func (t *Thread) ForOrdered(lo, hi int, body func(i int, ordered func(func()))) {
	rt := t.rt
	cell := rt.orderedCell(int(t.lastSeq), t.orderedIdx, lo)
	t.orderedIdx++
	// One ordered closure per loop instance, not per iteration: the current
	// iteration number flows through cur.
	cur := lo
	ordered := func(fn func()) {
		if t.isA || t.abandoned {
			return
		}
		t.P.SpinLoad(stats.CatLock, cell.Addr(0), func() bool { return cell.Get(0) == int64(cur) })
		fn()
		t.P.Store(cell.Addr(0))
		cell.Set(0, int64(cur)+1)
	}
	t.ForSched(Static, 0, lo, hi, false, func(i int) {
		cur = i
		body(i, ordered)
	})
}

// orderedCell returns the turn counter for an ordered loop occurrence.
func (rt *Runtime) orderedCell(seq, idx, lo int) *shmem.I64 {
	key := [2]int{seq, ^idx} // distinct key space from loop instances
	c := rt.singles[key]
	if c == nil {
		c = rt.NewI64(1)
		c.Set(0, int64(lo))
		rt.singles[key] = c
	}
	return c
}

// Flush is the OpenMP flush directive. On the hardware cache-coherent
// machine it maps to (nearly) nothing, and A-streams skip it entirely:
// they produce no shared values whose visibility could matter (§3.1 item 7).
func (t *Thread) Flush() {
	if t.isA {
		return
	}
	t.Compute(1)
}

// ReduceSumF performs a sum reduction of each thread's partial value and
// returns the combined result after the construct's barrier. R-streams
// serialize their contributions through a critical section (the Omni
// implementation); the A-stream executes the reduction as user code —
// its store becomes an exclusive prefetch of the accumulator — and reads
// the (possibly still partial, i.e. speculative) result after skipping the
// barrier (§3.1 "Reduction").
func (t *Thread) ReduceSumF(partial float64) float64 {
	rt := t.rt
	idx := t.reduceIdx
	t.reduceIdx++
	cell := rt.reduceCell(int(t.lastSeq), idx)
	if t.isA {
		if !t.abandoned {
			t.P.Prefetch(cell.Addr(0), true)
		}
		t.Barrier()
		if !t.abandoned {
			t.P.Load(cell.Addr(0))
		}
		return cell.Get(0)
	}
	t.CriticalNamed("__reduction", func() {
		t.P.Load(cell.Addr(0))
		t.P.Store(cell.Addr(0))
		cell.Set(0, cell.Get(0)+partial)
	})
	t.Barrier()
	t.P.Load(cell.Addr(0))
	return cell.Get(0)
}

// reduceCell returns the accumulator for a reduction occurrence.
func (rt *Runtime) reduceCell(seq, idx int) *shmem.F64 {
	key := [2]int{seq, idx}
	c := rt.reduces[key]
	if c == nil {
		c = rt.NewF64(1)
		rt.reduces[key] = c
	}
	return c
}

// Input models a system input operation of the given latency, executed
// inside a parallel region. The A-stream must see the same data image as
// its R-stream, so it stalls on the syscall semaphore until the R-stream
// finishes the input (§3.1 "I/O operations"); output operations need no
// such synchronization and are simply skipped by A-streams.
func (t *Thread) Input(latency sim.Time) {
	if t.isA {
		if t.abandoned {
			return
		}
		if _, _, ok := t.rt.SS.ATakeDecision(t.P); !ok {
			t.rt.SS.AAbsorbRecovery(t.P)
			t.abandoned = true
		}
		return
	}
	t.P.Wait(latency)
	if t.ssActive {
		t.rt.SS.RPublishDecision(t.P, 0, 0)
	}
}

// Output models a system output operation: irreversible, so A-streams must
// not execute it (§3.1); the R-stream stalls for the given latency.
func (t *Thread) Output(latency sim.Time) {
	if t.isA {
		return
	}
	t.P.Wait(latency)
}

// Lock is a test-and-test-and-set spinlock whose word lives in shared
// memory, so lock handoff migrates the line between CMPs exactly as it
// would on the real machine.
type Lock struct {
	w *shmem.I64
}

// lockAcquire takes the lock by test-and-test-and-set, charging waits to
// cat: spin until the word reads free, then try the RMW; a lost RMW waits
// one poll and spins again.
func (t *Thread) lockAcquire(l *Lock, cat stats.Category) {
	old := t.P.SetCategory(cat)
	for {
		t.P.SpinLoad(cat, l.w.Addr(0), func() bool { return l.w.Get(0) == 0 })
		t.P.RMW(l.w.Addr(0))
		if l.w.Get(0) == 0 {
			break
		}
		t.P.Wait(t.rt.Cfg.Machine.SpinPollCycles)
	}
	l.w.Set(0, 1)
	t.P.SetCategory(old)
}

// lockRelease frees the lock.
func (t *Thread) lockRelease(l *Lock) {
	t.P.Store(l.w.Addr(0))
	l.w.Set(0, 0)
}

// Locked runs body holding l (exposed for programs that manage explicit
// locks the way omp_set_lock/omp_unset_lock do). A-streams skip it like a
// critical section.
func (t *Thread) Locked(l *Lock, body func()) {
	if t.isA {
		return
	}
	t.lockAcquire(l, stats.CatLock)
	body()
	t.lockRelease(l)
}

// Time returns the simulated wall-clock time in seconds (omp_get_wtime).
func (t *Thread) Time() float64 {
	return float64(t.P.Ctx.Now()) / (t.rt.Cfg.Machine.ClockGHz * 1e9)
}
