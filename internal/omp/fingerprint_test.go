package omp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/spin_fingerprint.txt from the current code")

// spinPrograms exercise the spin-wait sites that neither the goldens nor
// the paper matrix run: the ordered turn, critical-section and guided
// scheduler locks, the decision handoff of dynamic, guided and affinity
// loops and of dynamic sections, Input's syscall semaphore, and the
// A-stream's task replay. Each body runs as two regions, so a faulted run
// recovers more than once.
var spinPrograms = []struct {
	name string
	body func(rt *Runtime) func(*Thread) // one region's body
}{
	{"ordered", func(rt *Runtime) func(*Thread) {
		a := rt.NewF64(64)
		return func(t *Thread) {
			t.ForOrdered(0, 24, func(i int, ordered func(func())) {
				t.StF(a, i, t.LdF(a, i)+1)
				t.Compute(sim.Time(i * 13 % 50))
				ordered(func() { t.StF(a, 32+i%32, t.LdF(a, 32+(i+1)%32)) })
			})
			t.Barrier()
		}
	}},
	{"critical", func(rt *Runtime) func(*Thread) {
		sum := rt.NewF64(1)
		a := rt.NewF64(64)
		l := rt.NewLock()
		return func(t *Thread) {
			for k := 0; k < 6; k++ {
				t.Compute(sim.Time(20 + 15*t.ID() + 7*k))
				t.LdF(a, (t.ID()*8+k)%64)
				t.Critical(func() { t.StF(sum, 0, t.LdF(sum, 0)+1) })
				t.Locked(l, func() { t.StF(a, k, t.LdF(a, k)+1) })
			}
			t.Barrier()
		}
	}},
	{"dynamic+guided", func(rt *Runtime) func(*Thread) {
		a := rt.NewF64(128)
		return func(t *Thread) {
			t.ForSched(Dynamic, 2, 0, 40, false, func(i int) {
				t.StF(a, i, t.LdF(a, i)+1)
				t.Compute(sim.Time(10 + i*7%40))
			})
			t.ForSched(Guided, 1, 0, 60, false, func(i int) {
				t.StF(a, 64+i, t.LdF(a, i%40)+1)
				t.Compute(sim.Time(5 + i*11%30))
				if t.IsA() {
					// A lagging A-stream makes its R-stream wait to
					// publish the next decision.
					t.Compute(150)
				}
			})
		}
	}},
	{"affinity", func(rt *Runtime) func(*Thread) {
		a := rt.NewF64(64)
		return func(t *Thread) {
			for k := 0; k < 2; k++ {
				t.ForAffinity(2, 0, 48, func(i int) {
					t.StF(a, i, t.LdF(a, i)+1)
					t.Compute(sim.Time(10 + (i*i)%60))
				})
			}
		}
	}},
	{"sections", func(rt *Runtime) func(*Thread) {
		a := rt.NewF64(64)
		return func(t *Thread) {
			t.Input(150)
			bodies := make([]func(), 6)
			for s := range bodies {
				s := s
				bodies[s] = func() {
					for i := 0; i < 8; i++ {
						t.StF(a, s*8+i, t.LdF(a, s*8+i)+1)
					}
					t.Compute(sim.Time(40 * (s + 1)))
				}
			}
			t.SectionsDynamic(bodies...)
			// The A-stream leaves this store-bound loop first and waits
			// in Input, where a recovery can reach it.
			t.ForStatic(0, 64, func(i int) { t.StF(a, i, float64(i)) })
			t.Input(100)
			t.ReduceSumF(float64(t.ID() + 1))
		}
	}},
	{"taskloop", func(rt *Runtime) func(*Thread) {
		a := rt.NewF64(64)
		return func(t *Thread) {
			t.Master(func() {
				t.Taskloop(2, 0, 32, func(th *Thread, i int) {
					th.StF(a, i, th.LdF(a, i)+1)
					th.Compute(sim.Time(20 + i*9%50))
				})
			})
			t.TaskBarrier()
		}
	}},
}

// spinModes are the five ways each program runs; the faulted one forces
// divergences and token losses so the recovery paths of the A-stream's
// barrier and decision replay run.
var spinModes = []struct {
	name   string
	mode   core.Mode
	ss     core.Config
	faults *faults.Config
}{
	{"single", core.ModeSingle, core.Config{}, nil},
	{"double", core.ModeDouble, core.Config{}, nil},
	{"G0", core.ModeSlipstream, core.G0, nil},
	{"L1", core.ModeSlipstream, core.L1, nil},
	{"L1+faults", core.ModeSlipstream, core.L1, &faults.Config{Seed: 7, Rate: 0.5}},
}

// TestSpinSiteFingerprint pins the simulated timing of the spin-wait
// sites above at 4 CMPs: one line per program and mode with the wall
// time, the recoveries, every processor's breakdown and every CMP's pair
// registers. Any cycle a spin loop gains, loses or moves shows here. A
// deliberate model change regenerates the file with -update.
func TestSpinSiteFingerprint(t *testing.T) {
	var b strings.Builder
	for _, pg := range spinPrograms {
		for _, md := range spinModes {
			c := cfg(md.mode, 4)
			c.Slipstream = md.ss
			c.Faults = md.faults
			rt, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			body := pg.body(rt)
			err = rt.Run(func(m *Thread) {
				m.Parallel(body)
				m.Parallel(body)
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", pg.name, md.name, err)
			}
			if md.faults != nil && rt.SS.Recoveries() == 0 {
				t.Errorf("%s/%s: no recovery taken; the recovery paths go unpinned", pg.name, md.name)
			}
			fmt.Fprintf(&b, "%s/%s wall=%d rec=%d", pg.name, md.name, rt.M.WallTime(), rt.SS.Recoveries())
			for _, p := range rt.M.Procs {
				fmt.Fprintf(&b, " p%d=%v", p.GID, p.Bd)
			}
			for _, nd := range rt.M.Nodes {
				fmt.Fprintf(&b, " n%d=%v", nd.ID, nd.Regs)
			}
			b.WriteByte('\n')
		}
	}
	const path = "testdata/spin_fingerprint.txt"
	if *updateFingerprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	exp := strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Fatalf("fingerprint has %d lines, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
		}
	}
}
