package omp

import (
	"testing"

	"repro/internal/core"
)

func TestForOrderedSerializesInOrder(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		c := cfg(mode, 4)
		rt, _ := New(c)
		const n = 40
		var order []int
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				t2.ForOrdered(0, n, func(i int, ordered func(func())) {
					t2.Compute(uint64((i * 13) % 50)) // uneven work
					ordered(func() { order = append(order, i) })
				})
			})
		}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(order) != n {
			t.Fatalf("%v: ordered ran %d times, want %d", mode, len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%v: ordered sequence %v broken at %d", mode, order[:i+1], i)
			}
		}
	}
}

func TestForOrderedSkippedByA(t *testing.T) {
	c := cfg(core.ModeSlipstream, 2)
	rt, _ := New(c)
	aRan := false
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.ForOrdered(0, 8, func(i int, ordered func(func())) {
				ordered(func() {
					if t2.IsA() {
						aRan = true
					}
				})
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	if aRan {
		t.Fatal("A-stream executed an ordered region")
	}
}

func TestTwoOrderedLoopsSameRegion(t *testing.T) {
	c := cfg(core.ModeSingle, 2)
	rt, _ := New(c)
	var first, second []int
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.ForOrdered(0, 6, func(i int, ordered func(func())) {
				ordered(func() { first = append(first, i) })
			})
			t2.ForOrdered(0, 6, func(i int, ordered func(func())) {
				ordered(func() { second = append(second, i) })
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 6 || len(second) != 6 {
		t.Fatalf("ordered loops ran %d/%d iterations", len(first), len(second))
	}
}

func TestSectionsDynamicRunsAllOnce(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeSlipstream} {
		c := cfg(mode, 4)
		rt, _ := New(c)
		counts := make([]int, 10)
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				bodies := make([]func(), 10)
				for s := range bodies {
					s := s
					bodies[s] = func() {
						if !t2.IsA() {
							counts[s]++
						}
					}
				}
				t2.SectionsDynamic(bodies...)
			})
		}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for s, n := range counts {
			if n != 1 {
				t.Fatalf("%v: section %d ran %d times", mode, s, n)
			}
		}
	}
}

func TestForAffinityCoversAllIterations(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeDouble, core.ModeSlipstream} {
		c := cfg(mode, 4)
		rt, _ := New(c)
		const n = 177
		count := rt.NewI64(n)
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				t2.ForAffinity(5, 0, n, func(i int) {
					if !t2.IsA() {
						t2.StI(count, i, count.Get(i)+1)
					}
					t2.Compute(3)
				})
			})
		}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := 0; i < n; i++ {
			if count.Get(i) != 1 {
				t.Fatalf("%v: iteration %d ran %d times", mode, i, count.Get(i))
			}
		}
	}
}

func TestForAffinityPrefersOwnBlock(t *testing.T) {
	c := cfg(core.ModeSingle, 4)
	rt, _ := New(c)
	const n = 64 // 16 per thread
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.ForAffinity(4, 0, n, func(i int) {
				if owner[i] < 0 {
					owner[i] = t2.ID()
				}
				t2.Compute(10)
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	// With uniform work nobody needs to steal: every iteration should be
	// executed by its block owner.
	for i, o := range owner {
		want := i * 4 / n
		if o != want {
			t.Fatalf("iteration %d ran on thread %d, want block owner %d", i, o, want)
		}
	}
}

func TestForAffinityStealsFromImbalance(t *testing.T) {
	c := cfg(core.ModeSingle, 4)
	rt, _ := New(c)
	const n = 64
	owner := make([]int, n)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.ForAffinity(2, 0, n, func(i int) {
				owner[i] = t2.ID()
				if i < 16 {
					t2.Compute(8000) // thread 0's block is very heavy
				} else {
					t2.Compute(5)
				}
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for i := 0; i < 16; i++ {
		if owner[i] != 0 {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no iterations stolen from the overloaded block")
	}
}

func TestForAffinitySlipstreamVerifies(t *testing.T) {
	// A-streams must replay exactly their R-stream's claimed chunks,
	// including steals.
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	const n = 120
	dst := rt.NewF64(n)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.ForAffinity(3, 0, n, func(i int) {
				t2.Compute(uint64(1 + (i*7)%40))
				t2.StF(dst, i, float64(i)+0.5)
			})
			t2.ForAffinity(3, 0, n, func(i int) {
				t2.StF(dst, i, t2.LdF(dst, i)*2)
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if dst.Get(i) != 2*(float64(i)+0.5) {
			t.Fatalf("dst[%d] = %v", i, dst.Get(i))
		}
	}
}

func TestDirectiveIfHelper(t *testing.T) {
	d := &core.Directive{Type: core.LocalSync, Tokens: 1, HasTokens: true}
	if got := core.If(true, d); got != d {
		t.Fatal("If(true) did not pass the directive through")
	}
	if got := core.If(false, d); got.Type != core.NoneSync {
		t.Fatalf("If(false) = %+v, want NONE", got)
	}
	// End-to-end: gate slipstream on CMP count, as §3.3 suggests.
	c := cfg(core.ModeSlipstream, 2)
	rt, _ := New(c)
	aRan := false
	limit := 4 // "use slipstream only when more than 4 CMPs"
	if err := rt.Run(func(m *Thread) {
		m.ParallelD(core.If(c.Machine.Nodes > limit, nil), func(t2 *Thread) {
			if t2.IsA() {
				aRan = true
			}
			t2.Compute(5)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if aRan {
		t.Fatal("slipstream ran despite failing the IF condition")
	}
}

func TestParallelTunedSettlesAndStaysCorrect(t *testing.T) {
	c := cfg(core.ModeSlipstream, 4)
	rt, _ := New(c)
	tu := core.NewAutoTuner(core.G0, core.L1)
	const n = 512
	arr := rt.NewF64(n)
	iters := 0
	if err := rt.Run(func(m *Thread) {
		for it := 0; it < 8; it++ { // 2 candidates x (1 warmup + 1 trial) + settled runs
			iters++
			m.ParallelTuned(tu, "sweep", func(t2 *Thread) {
				t2.For(0, n, func(i int) {
					t2.StF(arr, i, t2.LdF(arr, i)+1)
					t2.Compute(3)
				})
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !tu.Settled() {
		t.Fatalf("tuner not settled after %d executions:\n%s", iters, tu.Summary())
	}
	if _, ok := tu.Best("sweep"); !ok {
		t.Fatal("no best recorded")
	}
	for i := 0; i < n; i++ {
		if arr.Get(i) != 8 {
			t.Fatalf("arr[%d] = %v, want 8 (tuning must not change results)", i, arr.Get(i))
		}
	}
}

func TestThreadTime(t *testing.T) {
	c := cfg(core.ModeSingle, 2)
	rt, _ := New(c)
	var t0, t1 float64
	if err := rt.Run(func(m *Thread) {
		t0 = m.Time()
		m.Parallel(func(t2 *Thread) { t2.Compute(1_200_000) }) // 1 ms at 1.2 GHz
		t1 = m.Time()
	}); err != nil {
		t.Fatal(err)
	}
	if d := t1 - t0; d < 0.0009 || d > 0.002 {
		t.Fatalf("elapsed = %v s, want ~1 ms", d)
	}
}

func TestInputInSingleMode(t *testing.T) {
	c := cfg(core.ModeSingle, 2)
	rt, _ := New(c)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			t2.Master(func() { t2.Input(500) })
			t2.Barrier()
		})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleReducesPerRegion(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSingle, core.ModeSlipstream} {
		c := cfg(mode, 4)
		rt, _ := New(c)
		var s1, s2 float64
		if err := rt.Run(func(m *Thread) {
			m.Parallel(func(t2 *Thread) {
				a := t2.ReduceSumF(1)
				b := t2.ReduceSumF(10)
				if t2.ID() == 0 && !t2.IsA() {
					s1, s2 = a, b
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
		if s1 != 4 || s2 != 40 {
			t.Fatalf("%v: reduces = %v, %v; want 4, 40", mode, s1, s2)
		}
	}
}

func TestSectionsMoreThanTeam(t *testing.T) {
	c := cfg(core.ModeSingle, 2)
	rt, _ := New(c)
	ran := make([]int, 7)
	if err := rt.Run(func(m *Thread) {
		m.Parallel(func(t2 *Thread) {
			bodies := make([]func(), 7)
			for s := range bodies {
				s := s
				bodies[s] = func() { ran[s]++ }
			}
			t2.Sections(bodies...)
		})
	}); err != nil {
		t.Fatal(err)
	}
	for s, n := range ran {
		if n != 1 {
			t.Fatalf("section %d ran %d times", s, n)
		}
	}
}
