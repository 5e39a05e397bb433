package omp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// cfg returns a small test configuration.
func cfg(mode core.Mode, nodes int) Config {
	p := machine.DefaultParams()
	p.Nodes = nodes
	return Config{Machine: p, Mode: mode}
}

// run builds a runtime for c and executes program, failing the test on
// simulator errors. Returns the runtime for inspection.
func run(t *testing.T, c Config, program func(*Thread)) *Runtime {
	t.Helper()
	rt, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(program); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNewRefusesInvalidMachine: a node count outside the machine's range,
// or a cache geometry the machine cannot build, comes back as an error
// instead of a panic.
func TestNewRefusesInvalidMachine(t *testing.T) {
	for _, nodes := range []int{0, 65} {
		if _, err := New(cfg(core.ModeSingle, nodes)); err == nil || !strings.Contains(err.Error(), "node count") {
			t.Errorf("New with %d nodes: err = %v, want the machine's node-count error", nodes, err)
		}
	}
	c := cfg(core.ModeSingle, 4)
	c.Machine.L2Assoc = 3
	if _, err := New(c); err == nil || !strings.Contains(err.Error(), "machine: L2") {
		t.Errorf("New with a 3-way 1 MB L2: err = %v, want the machine's L2 geometry error", err)
	}
}

func TestTeamSizes(t *testing.T) {
	for _, tc := range []struct {
		mode core.Mode
		want int
	}{
		{core.ModeSingle, 4},
		{core.ModeDouble, 8},
		{core.ModeSlipstream, 4},
	} {
		rt, err := New(cfg(tc.mode, 4))
		if err != nil {
			t.Fatal(err)
		}
		if rt.NumThreads() != tc.want {
			t.Errorf("%v team size = %d, want %d", tc.mode, rt.NumThreads(), tc.want)
		}
	}
}

func TestParallelRunsAllThreads(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		c := cfg(mode, 4)
		var rt *Runtime
		rt, _ = New(c)
		n := rt.NumThreads()
		seen := make([]int, n)
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				if !t2.IsA() {
					seen[t2.ID()]++
				}
				t2.Compute(10)
			})
		}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for id, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("%v: thread %d ran %d times", mode, id, cnt)
			}
		}
	}
}

func TestSlipstreamAStreamsRunRegions(t *testing.T) {
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	aRuns := 0
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			if t2.IsA() {
				aRuns++
			}
			t2.Compute(10)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if aRuns != 4 {
		t.Fatalf("A-streams ran region %d times, want 4", aRuns)
	}
}

func TestMultipleRegionsAndSerialCode(t *testing.T) {
	c := cfg(core.ModeSingle, 2)
	serial := 0
	regions := 0
	run(t, c, func(m *Thread) {
		serial++
		m.Parallel(func(t2 *Thread) { t2.Compute(5) })
		serial++
		m.Parallel(func(t2 *Thread) {
			if t2.ID() == 0 {
				regions++
			}
			t2.Compute(5)
		})
		serial++
	})
	if serial != 3 || regions != 1 {
		t.Fatalf("serial=%d regions=%d", serial, regions)
	}
}

// parallelSum computes sum(0..n) via For and per-element stores; results
// must be identical in every mode.
func parallelSum(c Config, n int) ([]float64, *Runtime, error) {
	rt, err := New(c)
	if err != nil {
		return nil, nil, err
	}
	src := rt.NewF64(n)
	dst := rt.NewF64(n)
	for i := 0; i < n; i++ {
		src.Set(i, float64(i))
	}
	err = rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.For(0, n, func(i int) {
				v := t2.LdF(src, i)
				t2.Compute(4)
				t2.StF(dst, i, 2*v+1)
			})
		})
	})
	return dst.Data(), rt, err
}

func TestForProducesIdenticalResultsAcrossModes(t *testing.T) {
	const n = 500
	var ref []float64
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		got, _, err := parallelSum(cfg(mode, 4), n)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i, v := range got {
			if v != 2*float64(i)+1 {
				t.Fatalf("%v: dst[%d] = %v", mode, i, v)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%v: result differs from single mode at %d", mode, i)
			}
		}
	}
}

func TestForCoversAllIterationsExactlyOnce(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
			c := cfg(mode, 4)
			c.Sched = sched
			c.Chunk = 7
			rt, _ := New(c)
			const n = 193
			count := rt.NewI64(n)
			if err := rt.Run(func(m *Thread) {
				m.Parallel(func(t2 *Thread) {
					t2.For(0, n, func(i int) {
						if !t2.IsA() {
							t2.StI(count, i, count.Get(i)+1)
						}
						t2.Compute(2)
					})
				})
			}); err != nil {
				t.Fatalf("%v/%v: %v", sched, mode, err)
			}
			for i := 0; i < n; i++ {
				if count.Get(i) != 1 {
					t.Fatalf("%v/%v: iteration %d executed %d times", sched, mode, i, count.Get(i))
				}
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		c := cfg(core.ModeSlipstream, 2)
		c.Sched = sched
		ran := false
		run(t, c, func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				t2.For(5, 5, func(i int) { ran = true })
			})
		})
		if ran {
			t.Fatalf("%v: body ran for empty range", sched)
		}
	}
}

func TestAStreamNeverWritesSharedMemory(t *testing.T) {
	// The core invariant: A-stream stores must not change backing values.
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	arr := rt.NewF64(64)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			if t2.IsA() {
				for i := 0; i < 64; i++ {
					t2.StF(arr, i, -999) // must vanish
				}
			}
			t2.Compute(100)
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if arr.Get(i) != 0 {
			t.Fatalf("A-stream store leaked into shared memory at %d: %v", i, arr.Get(i))
		}
	}
}

func TestReduction(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		c := cfg(mode, 4)
		rt, _ := New(c)
		const n = 100
		src := rt.NewF64(n)
		for i := 0; i < n; i++ {
			src.Set(i, 1)
		}
		var got float64
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				partial := 0.0
				t2.ForNowait(0, n, func(i int) {
					partial += t2.LdF(src, i)
					t2.Compute(1)
				})
				sum := t2.ReduceSumF(partial)
				if t2.ID() == 0 && !t2.IsA() {
					got = sum
				}
			})
		}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got != n {
			t.Fatalf("%v: reduction = %v, want %d", mode, got, n)
		}
	}
}

func TestCriticalMutualExclusionAndASkip(t *testing.T) {
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	cell := rt.NewI64(1)
	aEntered := false
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			for k := 0; k < 10; k++ {
				t2.Critical(func() {
					if t2.IsA() {
						aEntered = true
					}
					v := t2.LdI(cell, 0)
					t2.Compute(20)
					t2.StI(cell, 0, v+1)
				})
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if aEntered {
		t.Fatal("A-stream entered a critical section")
	}
	if cell.Get(0) != 40 {
		t.Fatalf("critical counter = %d, want 40 (lost updates?)", cell.Get(0))
	}
}

func TestAtomicAdd(t *testing.T) {
	c := cfg(core.ModeDouble, 4)
	rt, _ := New(c)
	cell := rt.NewF64(1)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			for k := 0; k < 5; k++ {
				t2.AtomicAddF(cell, 0, 1)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if cell.Get(0) != 40 { // 8 threads * 5
		t.Fatalf("atomic sum = %v, want 40", cell.Get(0))
	}
}

func TestSingleRunsExactlyOnce(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		c := cfg(mode, 4)
		count := 0
		run(t, c, func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				t2.Single(func() { count++ })
				t2.Barrier()
				t2.Single(func() { count += 10 })
				t2.Barrier()
			})
		})
		if count != 11 {
			t.Fatalf("%v: single executed count=%d, want 11", mode, count)
		}
	}
}

func TestMasterConstruct(t *testing.T) {
	c := cfg(core.ModeSlipstream, 4)
	rByID := map[int]int{}
	aCount := 0
	run(t, c, func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.Master(func() {
				if t2.IsA() {
					aCount++
				} else {
					rByID[t2.ID()]++
				}
			})
			t2.Barrier()
		})
	})
	if len(rByID) != 1 || rByID[0] != 1 {
		t.Fatalf("master executed by R threads %v", rByID)
	}
	if aCount != 1 {
		t.Fatalf("master's A-stream executed master %d times, want 1", aCount)
	}
}

func TestSectionsStaticAssignment(t *testing.T) {
	c := cfg(core.ModeDouble, 2) // 4 threads
	owner := make([]int, 6)
	for i := range owner {
		owner[i] = -1
	}
	run(t, c, func(m *Thread) {
		bodies := make([]func(), 6)
		exec := func(t2 *Thread) {
			for s := range bodies {
				s := s
				bodies[s] = func() { owner[s] = t2.ID() }
			}
			t2.Sections(bodies...)
		}
		m.Parallel(func(t2 *Thread) { exec(t2) })
	})
	for s, o := range owner {
		if o != s%4 {
			t.Fatalf("section %d ran on thread %d, want %d", s, o, s%4)
		}
	}
}

func TestFlushSkippedByA(t *testing.T) {
	c := cfg(core.ModeSlipstream, 2)
	run(t, c, func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.Flush()
			t2.Compute(1)
		})
	})
}

func TestInputOutputConstructs(t *testing.T) {
	c := cfg(core.ModeSlipstream, 2)
	run(t, c, func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.Master(func() {
				t2.Input(1000)
				t2.Output(500)
			})
			t2.Barrier()
		})
	})
}

func TestLockedConstruct(t *testing.T) {
	c := cfg(core.ModeDouble, 2)
	rt, _ := New(c)
	l := rt.NewLock()
	n := 0
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.Locked(l, func() { n++ })
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("lock-protected count = %d, want 4", n)
	}
}

func TestPerRegionDirective(t *testing.T) {
	// A region carrying a NONE directive must not run A-streams even in
	// slipstream mode; the next region (no directive) runs them again.
	c := cfg(core.ModeSlipstream, 2)
	rt, _ := New(c)
	aIn1, aIn2 := 0, 0
	none := &core.Directive{Type: core.NoneSync}
	if err := rt.Run(func(m *Thread) {
		m.ParallelD(none, func(t2 *Thread) {
			if t2.IsA() {
				aIn1++
			}
			t2.Compute(10)
		})
		m.Parallel(func(t2 *Thread) {
			if t2.IsA() {
				aIn2++
			}
			t2.Compute(10)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if aIn1 != 0 {
		t.Fatalf("A-streams ran a NONE region %d times", aIn1)
	}
	if aIn2 != 2 {
		t.Fatalf("A-streams skipped an enabled region (ran %d, want 2)", aIn2)
	}
}

func TestDirectiveTokensApply(t *testing.T) {
	c := cfg(core.ModeSlipstream, 2)
	rt, _ := New(c)
	dir := &core.Directive{Type: core.LocalSync, Tokens: 2, HasTokens: true}
	if err := rt.Run(func(m *Thread) {
		m.ParallelD(dir, func(t2 *Thread) {
			t2.Compute(10)
			t2.Barrier()
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := rt.M.Nodes[0].Regs.Allowance; got != 2 {
		t.Fatalf("allowance = %d, want 2", got)
	}
}

func TestEnvControlsSameBinary(t *testing.T) {
	// Same program, slipstream disabled via OMP_SLIPSTREAM=NONE.
	c := cfg(core.ModeSlipstream, 2)
	c.Env = "NONE"
	rt, _ := New(c)
	aRan := false
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			if t2.IsA() {
				aRan = true
			}
			t2.Compute(5)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if aRan {
		t.Fatal("OMP_SLIPSTREAM=NONE did not disable A-streams")
	}
}

func TestBadEnvRejected(t *testing.T) {
	c := cfg(core.ModeSlipstream, 2)
	c.Env = "WHAT"
	if _, err := New(c); err == nil {
		t.Fatal("bad OMP_SLIPSTREAM accepted")
	}
}

func TestRecoveryInjection(t *testing.T) {
	// Force a divergence mid-loop; the A-stream must abandon the region and
	// the program must complete with correct results.
	c := cfg(core.ModeSlipstream, 2)
	c.Slipstream = core.L1
	rt, _ := New(c)
	const n = 4000
	dst := rt.NewF64(n)
	injected := false
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.For(0, n, func(i int) {
				if t2.IsA() && !injected && i > 100 {
					injected = true
					rt.SS.InjectDivergence(t2.P)
				}
				t2.Compute(2)
				t2.StF(dst, i, float64(i))
			})
			t2.For(0, n, func(i int) { t2.Compute(1) })
		})
	}); err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("injection never happened")
	}
	for i := 0; i < n; i++ {
		if dst.Get(i) != float64(i) {
			t.Fatalf("dst[%d] = %v after recovery", i, dst.Get(i))
		}
	}
	// The pair must end resynchronized.
	r := rt.M.Nodes[0].Regs
	if r.ABarriers != r.RBarriers {
		t.Fatalf("pair not resynchronized: A=%d R=%d", r.ABarriers, r.RBarriers)
	}
}

func TestStalledAStreamTriggersRecovery(t *testing.T) {
	// An A-stream that stops making progress must be detected by its
	// R-stream's divergence check, and the program must still finish.
	c := cfg(core.ModeSlipstream, 2)
	rt, _ := New(c)
	stallUntil := uint64(0)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			if t2.IsA() && t2.ID() == 0 {
				// Simulate a wedged A-stream: burn time without syncing.
				if stallUntil == 0 {
					stallUntil = 1
					t2.Compute(2_000_000)
				}
			}
			for k := 0; k < 4; k++ {
				t2.Compute(100)
				t2.Barrier()
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if rt.SS.Recoveries() == 0 {
		t.Fatal("stalled A-stream never triggered recovery")
	}
}

func TestBreakdownCoversWallTime(t *testing.T) {
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.For(0, 1000, func(i int) { t2.Compute(3) })
			t2.Barrier()
		})
	}); err != nil {
		t.Fatal(err)
	}
	bd := rt.M.TotalBreakdown()
	if bd.Total() == 0 {
		t.Fatal("empty breakdown")
	}
}

func TestDeterministicWallTime(t *testing.T) {
	wall := func() uint64 {
		c := cfg(core.ModeSlipstream, 4)
		c.Sched = Dynamic
		c.Chunk = 16
		rt, _ := New(c)
		arr := rt.NewF64(256)
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				t2.For(0, 256, func(i int) {
					t2.StF(arr, i, t2.LdF(arr, i)+1)
					t2.Compute(5)
				})
			})
		}); err != nil {
			t.Fatal(err)
		}
		return rt.M.WallTime()
	}
	if a, b := wall(), wall(); a != b {
		t.Fatalf("non-deterministic wall time: %d vs %d", a, b)
	}
}

func TestParallelOffMasterPanics(t *testing.T) {
	c := cfg(core.ModeSingle, 2)
	rt, _ := New(c)
	panicked := false
	_ = rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			if t2.ID() == 1 {
				func() {
					defer func() {
						if recover() != nil {
							panicked = true
						}
					}()
					t2.Parallel(func(*Thread) {})
				}()
			}
		})
	})
	if !panicked {
		t.Fatal("Parallel off the master did not panic")
	}
}

func TestSharedRequestClassificationPopulated(t *testing.T) {
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	arr := rt.NewF64(4096)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.For(0, 4096, func(i int) {
				v := t2.LdF(arr, i)
				t2.Compute(2)
				t2.StF(arr, i, v+1)
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	if rt.M.Class.KindTotal(0) == 0 && rt.M.Class.KindTotal(1) == 0 {
		t.Fatal("no classified shared requests in slipstream mode")
	}
}

func TestScheduleStrings(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("schedule strings")
	}
}

// A parallel region body that panics fails the run with an error naming
// the panic, in every mode, instead of killing the process.
func TestRegionPanicFailsRun(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		rt, err := New(cfg(mode, 2))
		if err != nil {
			t.Fatal(err)
		}
		err = rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				if t2.ID() == 1 {
					panic("region bug")
				}
			})
		})
		var pe *sim.PanicError
		if !errors.As(err, &pe) || pe.Value != "region bug" {
			t.Fatalf("%v: Run = %v, want the region's panic", mode, err)
		}
	}
}
