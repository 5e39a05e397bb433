package omp

import (
	"repro/internal/stats"
)

// recoveryCheckStride is how many iterations an A-stream executes between
// polls of the recovery flag (a pair-register access each poll).
const recoveryCheckStride = 256

// For runs a worksharing loop over [lo, hi) with the run's default
// schedule, ending with the construct's implied barrier.
func (t *Thread) For(lo, hi int, body func(i int)) {
	t.ForSched(t.rt.Cfg.Sched, t.rt.Cfg.Chunk, lo, hi, false, body)
}

// ForNowait is For without the implied barrier (OpenMP nowait clause).
func (t *Thread) ForNowait(lo, hi int, body func(i int)) {
	t.ForSched(t.rt.Cfg.Sched, t.rt.Cfg.Chunk, lo, hi, true, body)
}

// ForStatic runs the loop with a static schedule regardless of the run's
// default (used by programs that hard-code static scheduling, as LU does
// in the paper's benchmark set).
func (t *Thread) ForStatic(lo, hi int, body func(i int)) {
	t.ForSched(Static, 0, lo, hi, false, body)
}

// ForSched runs a worksharing loop with an explicit schedule and chunk.
func (t *Thread) ForSched(sched Schedule, chunk int, lo, hi int, nowait bool, body func(i int)) {
	switch sched {
	case Static:
		t.forStatic(lo, hi, body)
	case Dynamic:
		t.forDynamic(chunk, lo, hi, body, false)
	case Guided:
		t.forDynamic(chunk, lo, hi, body, true)
	}
	if !nowait {
		t.Barrier()
	}
}

// forStatic block-partitions [lo, hi) by thread ID. Each thread computes
// its block independently from the thread count and ID, so an A-stream
// reaches the same assignment as its R-stream with no synchronization at
// all (§3.2.1) — the least restrictive model for slipstream.
func (t *Thread) forStatic(lo, hi int, body func(i int)) {
	if t.abandoned {
		return
	}
	n := hi - lo
	if n <= 0 {
		return
	}
	nth := t.rt.teamSize
	myLo := lo + t.id*n/nth
	myHi := lo + (t.id+1)*n/nth
	t.Compute(4) // index arithmetic
	t.runChunk(myLo, myHi, body)
}

// runChunk executes iterations, letting A-streams poll for recovery at a
// coarse stride. A straggler thread (an armed fault plan's thread class)
// pays a per-iteration stall on every chunk it executes: under static
// scheduling the whole block is slowed and the team waits at the barrier,
// while dynamic scheduling migrates work away from the straggler.
func (t *Thread) runChunk(lo, hi int, body func(i int)) {
	if !t.isA {
		if d := t.rt.M.Faults.ThreadStall(t.id, hi-lo); d > 0 {
			t.P.Wait(d)
		}
	}
	for i := lo; i < hi; i++ {
		if t.abandoned {
			return
		}
		body(i)
		if t.isA && (i-lo)%recoveryCheckStride == recoveryCheckStride-1 {
			if t.rt.SS.ARecoveryPending(t.P) {
				t.rt.SS.AAbsorbRecovery(t.P)
				t.abandoned = true
				return
			}
		}
	}
}

// forDynamic implements dynamic and guided schedules: threads serialize
// through the loop's scheduler critical section to claim chunks (§3.2.2:
// "the scheduling decision should be serialized using a critical
// section"). In slipstream mode the R-stream publishes every decision —
// including the terminal empty one — through the pair's syscall semaphore,
// and the A-stream waits for and replays those decisions, since it cannot
// know a priori which chunks its R-stream will win.
func (t *Thread) forDynamic(chunk, lo, hi int, body func(i int), guided bool) {
	rt := t.rt
	if chunk <= 0 {
		chunk = 1
	}
	if t.isA {
		if t.ssActive {
			t.aReplay(func(cLo, cHi int64) { t.runChunk(int(cLo), int(cHi), body) })
		}
		return
	}

	ls := rt.loopInstance(int(t.lastSeq), t.loopIdx, lo)
	t.loopIdx++
	for {
		var cLo, cHi int
		old := t.P.SetCategory(stats.CatSched)
		if guided {
			// Guided chunks depend on the remaining count, so the
			// scheduler serializes through a critical section (§3.2.2).
			t.lockAcquire(ls.lock, stats.CatSched)
			t.P.Load(ls.next.Addr(0))
			cLo = int(ls.next.Get(0))
			remaining := hi - cLo
			size := chunk
			if g := remaining / (2 * rt.teamSize); g > size {
				size = g
			}
			cHi = cLo + size
			if cHi > hi {
				cHi = hi
			}
			if remaining > 0 {
				t.P.Store(ls.next.Addr(0))
				ls.next.Set(0, int64(cHi))
			}
			t.lockRelease(ls.lock)
		} else {
			// Fixed-size dynamic chunks: one atomic fetch-and-add on the
			// shared counter; serialization comes from the counter line
			// migrating between CMPs.
			cLo = int(t.fetchAdd(ls.next, 0, int64(chunk)))
			cHi = cLo + chunk
			if cHi > hi {
				cHi = hi
			}
		}
		t.P.SetCategory(old)
		if t.ssActive {
			rt.SS.RPublishDecision(t.P, int64(cLo), int64(cHi))
		}
		if cLo >= hi {
			return
		}
		t.runChunk(cLo, cHi, body)
	}
}

// aReplay is the A-stream's side of one scheduling construct: it takes
// each decision its R-stream publishes and runs it, stops at the
// construct's terminal (empty) decision, and abandons the region on a
// recovery. The controller then drops the R-stream's further publishes,
// so the two streams stay matched.
func (t *Thread) aReplay(run func(lo, hi int64)) {
	for !t.abandoned {
		lo, hi, ok := t.rt.SS.ATakeDecision(t.P)
		if !ok {
			t.rt.SS.AAbsorbRecovery(t.P)
			t.abandoned = true
			return
		}
		if lo >= hi {
			return
		}
		run(lo, hi)
	}
}

// loopInstance returns (lazily creating) the shared scheduler state for a
// dynamic/guided loop occurrence, with the next-iteration counter
// initialized to lo.
func (rt *Runtime) loopInstance(seq, idx, lo int) *loopState {
	key := [2]int{seq, idx}
	ls := rt.loops[key]
	if ls == nil {
		ls = &loopState{lock: rt.NewLock(), next: rt.NewI64(1)}
		ls.next.Set(0, int64(lo))
		rt.loops[key] = ls
	}
	return ls
}

// affinityInstance returns the shared per-thread counters of an affinity-
// scheduled loop occurrence: next[t] and end[t] delimit thread t's block.
func (rt *Runtime) affinityInstance(seq, idx, lo, hi int) *loopState {
	key := [2]int{seq, idx}
	ls := rt.loops[key]
	if ls == nil {
		nth := rt.teamSize
		ls = &loopState{next: rt.NewI64(nth), end: rt.NewI64(nth)}
		n := hi - lo
		for t := 0; t < nth; t++ {
			ls.next.Set(t, int64(lo+t*n/nth))
			ls.end.Set(t, int64(lo+(t+1)*n/nth))
		}
		rt.loops[key] = ls
	}
	return ls
}

// ForAffinity runs the loop with affinity scheduling (the extension the
// paper cites in §3.2.2): each thread first drains its own static block in
// chunks — preserving cache affinity across repeated loop instances — and
// then steals chunks from the most loaded victim. In slipstream mode the
// R-stream publishes every claimed chunk to its A-stream exactly as
// dynamic scheduling does, since steals are timing-dependent.
func (t *Thread) ForAffinity(chunk, lo, hi int, body func(i int)) {
	rt := t.rt
	if chunk <= 0 {
		chunk = 1
	}
	if t.isA {
		// Replay the R-stream's claimed chunks.
		if t.ssActive {
			t.aReplay(func(cLo, cHi int64) { t.runChunk(int(cLo), int(cHi), body) })
		}
		t.Barrier()
		return
	}

	ls := rt.affinityInstance(int(t.lastSeq), t.loopIdx, lo, hi)
	t.loopIdx++
	claim := func(victim int) (cLo, cHi int, ok bool) {
		old := t.P.SetCategory(stats.CatSched)
		end := int(ls.end.Get(victim)) // block bounds are loop constants
		got := int(t.fetchAdd(ls.next, victim, int64(chunk)))
		if got < end {
			cLo = got
			cHi = got + chunk
			if cHi > end {
				cHi = end
			}
			ok = true
		}
		t.P.SetCategory(old)
		return cLo, cHi, ok
	}
	work := func(cLo, cHi int) {
		if t.ssActive {
			rt.SS.RPublishDecision(t.P, int64(cLo), int64(cHi))
		}
		t.runChunk(cLo, cHi, body)
	}
	// Phase 1: own block.
	for {
		cLo, cHi, ok := claim(t.id)
		if !ok {
			break
		}
		work(cLo, cHi)
	}
	// Phase 2: steal from the victim with the most remaining work.
	for {
		victim, best := -1, 0
		old := t.P.SetCategory(stats.CatSched)
		for v := 0; v < rt.teamSize; v++ {
			if v == t.id {
				continue
			}
			t.P.Load(ls.next.Addr(v))
			if left := int(ls.end.Get(v) - ls.next.Get(v)); left > best {
				victim, best = v, left
			}
		}
		t.P.SetCategory(old)
		if victim < 0 {
			break
		}
		cLo, cHi, ok := claim(victim)
		if !ok {
			continue // lost the race; rescan
		}
		work(cLo, cHi)
	}
	if t.ssActive {
		rt.SS.RPublishDecision(t.P, 0, 0) // terminal decision
	}
	t.Barrier()
}
