package repro

// One benchmark per table and figure of the paper's evaluation (§5).
// Benchmarks run reduced problem scales on an 8-CMP machine so the full
// suite completes in minutes; the experiment harness (cmd/slipsim
// -experiment all) runs the paper-scale 16-CMP matrix. Simulated cycles
// and derived percentages are attached as benchmark metrics, so
// `go test -bench=.` prints the figure series alongside host-side cost.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/stats"
)

const benchNodes = 8

func benchParams() machine.Params {
	p := machine.DefaultParams()
	p.Nodes = benchNodes
	return p
}

// benchRun executes one kernel/config run per iteration and reports the
// simulated wall-clock cycles and what one run cost the engine: events
// dispatched, switches to another context's goroutine, resumes of the
// parking context on its own goroutine, and spin steps (polls the event
// loop ran without resuming the polling context).
func benchRun(b *testing.B, kernel string, cfg omp.Config) experiments.Result {
	b.Helper()
	k, err := npb.ByName(kernel)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.Sched != omp.Static && cfg.Chunk == 0 {
		cfg.Chunk = k.ChunkFor(npb.ScaleTest, benchNodes)
	}
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOne(k, "bench", cfg, npb.ScaleTest, true)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Wall), "sim-cycles")
	b.ReportMetric(float64(last.Engine.Events), "events")
	b.ReportMetric(float64(last.Engine.Switches), "switches")
	b.ReportMetric(float64(last.Engine.Resumes), "resumes")
	b.ReportMetric(float64(last.Engine.SpinSteps), "spin-steps")
	return last
}

// ---- Table 1: simulated system parameters -----------------------------------

// table1Renders is how many Table 1 renders one BenchmarkTable1Params op
// runs. One render takes about half a microsecond, so the three
// iterations of a ratchet run timed little but the timer; 2,000 renders
// make an op of about a millisecond.
const table1Renders = 2000

func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for j := 0; j < table1Renders; j++ {
			p := machine.DefaultParams()
			if err := p.Validate(); err != nil {
				b.Fatal(err)
			}
			_ = p.Table1()
		}
	}
}

// ---- Table 2: benchmark construction ----------------------------------------

func BenchmarkTable2Instances(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		for _, k := range npb.Kernels() {
			rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSingle})
			if err != nil {
				b.Fatal(err)
			}
			_ = k.Build(rt, npb.ScaleTest)
		}
	}
}

// ---- Figure 2: static-scheduling modes, per kernel ---------------------------

func fig2Configs() map[string]omp.Config {
	p := benchParams()
	return map[string]omp.Config{
		"Single": {Machine: p, Mode: core.ModeSingle},
		"Double": {Machine: p, Mode: core.ModeDouble},
		"SlipG0": {Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0},
		"SlipL1": {Machine: p, Mode: core.ModeSlipstream, Slipstream: core.L1},
	}
}

func benchFig2(b *testing.B, kernel string) {
	for _, name := range []string{"Single", "Double", "SlipG0", "SlipL1"} {
		cfg := fig2Configs()[name]
		b.Run(name, func(b *testing.B) { benchRun(b, kernel, cfg) })
	}
}

func BenchmarkFig2BT(b *testing.B) { benchFig2(b, "BT") }
func BenchmarkFig2CG(b *testing.B) { benchFig2(b, "CG") }
func BenchmarkFig2LU(b *testing.B) { benchFig2(b, "LU") }
func BenchmarkFig2MG(b *testing.B) { benchFig2(b, "MG") }
func BenchmarkFig2SP(b *testing.B) { benchFig2(b, "SP") }

// ---- Figure 3: shared-request classification, L1 vs G0 -----------------------

func benchFig3(b *testing.B, kernel string, ss core.Config) {
	p := benchParams()
	r := benchRun(b, kernel, omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: ss})
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqRead, stats.OutTimely), "A-timely-read-%")
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqRead, stats.OutLate), "A-late-read-%")
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqRead, stats.OutOnly), "A-only-read-%")
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqReadEx, stats.OutTimely), "A-timely-rdex-%")
}

func BenchmarkFig3CG_L1(b *testing.B) { benchFig3(b, "CG", core.L1) }
func BenchmarkFig3CG_G0(b *testing.B) { benchFig3(b, "CG", core.G0) }
func BenchmarkFig3MG_L1(b *testing.B) { benchFig3(b, "MG", core.L1) }
func BenchmarkFig3MG_G0(b *testing.B) { benchFig3(b, "MG", core.G0) }

// ---- Figure 4: dynamic scheduling, base vs slipstream ------------------------

func benchFig4(b *testing.B, kernel string) {
	p := benchParams()
	b.Run("SingleDyn", func(b *testing.B) {
		r := benchRun(b, kernel, omp.Config{Machine: p, Mode: core.ModeSingle, Sched: omp.Dynamic})
		sh := r.Breakdown.Shares()
		b.ReportMetric(100*sh[stats.CatSched], "sched-%")
	})
	b.Run("SlipG0Dyn", func(b *testing.B) {
		r := benchRun(b, kernel, omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Sched: omp.Dynamic})
		sh := r.Breakdown.Shares()
		b.ReportMetric(100*sh[stats.CatSched], "sched-%")
	})
}

func BenchmarkFig4BT(b *testing.B) { benchFig4(b, "BT") }
func BenchmarkFig4CG(b *testing.B) { benchFig4(b, "CG") }
func BenchmarkFig4MG(b *testing.B) { benchFig4(b, "MG") }
func BenchmarkFig4SP(b *testing.B) { benchFig4(b, "SP") }

// ---- Figure 5: classification under dynamic scheduling -----------------------

func benchFig5(b *testing.B, kernel string) {
	p := benchParams()
	r := benchRun(b, kernel, omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Sched: omp.Dynamic})
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqRead, stats.OutTimely), "A-timely-read-%")
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqRead, stats.OutLate), "A-late-read-%")
	b.ReportMetric(100*r.Class.Share(stats.RoleA, stats.ReqReadEx, stats.OutTimely), "A-timely-rdex-%")
}

func BenchmarkFig5CG(b *testing.B) { benchFig5(b, "CG") }
func BenchmarkFig5MG(b *testing.B) { benchFig5(b, "MG") }
func BenchmarkFig5SP(b *testing.B) { benchFig5(b, "SP") }

// ---- Suite throughput: the worker-pool runner --------------------------------

// benchStaticSuite runs the whole static matrix (5 kernels × 4 configs)
// through the experiments runner at a fixed worker count, so the
// sequential-vs-parallel wall-clock contrast shows up directly in ns/op.
func benchStaticSuite(b *testing.B, jobs int) {
	o := experiments.DefaultOptions()
	o.Nodes = benchNodes
	o.Scale = npb.ScaleTest
	o.Jobs = jobs
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunStatic(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteStaticSequential(b *testing.B) { benchStaticSuite(b, 1) }
func BenchmarkSuiteStaticParallel(b *testing.B)   { benchStaticSuite(b, 0) } // 0 = one worker per CPU

// ---- Ablations (DESIGN.md design-choice benches) -----------------------------

// Token-count sweep: how far ahead the A-stream may run (local sync).
func BenchmarkAblationTokens(b *testing.B) {
	p := benchParams()
	for _, tok := range []int{0, 1, 2, 4} {
		cfg := omp.Config{Machine: p, Mode: core.ModeSlipstream,
			Slipstream: core.Config{Type: core.LocalSync, Tokens: tok}}
		b.Run(core.Config{Type: core.LocalSync, Tokens: tok}.String(), func(b *testing.B) {
			benchRun(b, "MG", cfg)
		})
	}
}

// Self-invalidation on/off under zero-token global sync.
func BenchmarkAblationSelfInvalidation(b *testing.B) {
	p := benchParams()
	for _, si := range []bool{false, true} {
		name := "off"
		if si {
			name = "on"
		}
		cfg := omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, SelfInvalidate: si}
		b.Run(name, func(b *testing.B) { benchRun(b, "CG", cfg) })
	}
}

// Guided vs dynamic scheduling under slipstream.
func BenchmarkAblationGuided(b *testing.B) {
	p := benchParams()
	for _, sched := range []omp.Schedule{omp.Dynamic, omp.Guided} {
		cfg := omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Sched: sched}
		b.Run(sched.String(), func(b *testing.B) { benchRun(b, "MG", cfg) })
	}
}

// Mesh vs fixed-delay interconnect (topology ablation).
func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []machine.Topology{machine.TopoFixed, machine.TopoMesh2D} {
		p := benchParams()
		p.Topology = topo
		cfg := omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0}
		b.Run(topo.String(), func(b *testing.B) { benchRun(b, "MG", cfg) })
	}
}

// Affinity vs dynamic scheduling on an imbalanced workload.
func BenchmarkAblationAffinity(b *testing.B) {
	p := benchParams()
	for _, name := range []string{"dynamic", "affinity"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var last uint64
			for i := 0; i < b.N; i++ {
				rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSingle})
				if err != nil {
					b.Fatal(err)
				}
				const tasks = 256
				out := rt.NewF64(tasks)
				err = rt.Run(func(m *omp.Thread) {
					m.Parallel(func(t *omp.Thread) {
						body := func(task int) {
							t.Compute(uint64(20 * (1 + 6*task/tasks)))
							t.StF(out, task, 1)
						}
						if name == "affinity" {
							t.ForAffinity(4, 0, tasks, body)
						} else {
							t.ForSched(omp.Dynamic, 4, 0, tasks, false, body)
						}
					})
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rt.M.WallTime()
			}
			b.ReportMetric(float64(last), "sim-cycles")
		})
	}
}

// ---- Tasking tier: task tree vs loop baseline --------------------------------

// Fig2-style cells for the tasking study: the recursive TREE task kernel
// (default cut-off) and its TREEL loop baseline, single vs slipstream-G0,
// with the deque counters attached so the ratchet also pins scheduler
// behavior — a steal-count change means the victim-selection or publish
// protocol moved, not just timing.
func benchTasks(b *testing.B, kernel string) {
	p := benchParams()
	for _, tc := range []struct {
		name string
		cfg  omp.Config
	}{
		{"Single", omp.Config{Machine: p, Mode: core.ModeSingle}},
		{"SlipG0", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			r := benchRun(b, kernel, tc.cfg)
			b.ReportMetric(float64(r.TasksRun), "tasks")
			b.ReportMetric(float64(r.Steals), "steals")
		})
	}
}

func BenchmarkTasksTREE(b *testing.B)  { benchTasks(b, "TREE") }
func BenchmarkTasksTREEL(b *testing.B) { benchTasks(b, "TREEL") }
func BenchmarkTasksEPT(b *testing.B)   { benchTasks(b, "EPT") }

// EP extension: static vs dynamic under imbalance (the §3.2.2 claim).
func BenchmarkExtensionEP(b *testing.B) {
	p := benchParams()
	for _, tc := range []struct {
		name  string
		sched omp.Schedule
	}{{"Static", omp.Static}, {"Dynamic", omp.Dynamic}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var last uint64
			for i := 0; i < b.N; i++ {
				rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSingle, Sched: tc.sched, Chunk: 2})
				if err != nil {
					b.Fatal(err)
				}
				inst := npb.BuildEPImbalanced(rt, npb.ScaleTest)
				if err := rt.Run(inst.Program); err != nil {
					b.Fatal(err)
				}
				if err := inst.Verify(); err != nil {
					b.Fatal(err)
				}
				last = rt.M.WallTime()
			}
			b.ReportMetric(float64(last), "sim-cycles")
		})
	}
}
