// Package validate is the simulator's self-checkup: a battery of
// programmatic checks that pin the timing model to the paper's Table 1
// figures and verify the structural invariants the experiments rely on
// (determinism, coherence, slipstream isolation, token balance). It backs
// cmd/validate and is also exercised by the test suite, so a regression in
// the model surfaces as both a failing test and a failing checkup.
package validate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/pool"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is one check's outcome.
type Result struct {
	Name   string
	Pass   bool
	Detail string
}

// minNodes is the smallest machine every check is built for: the 3-hop
// check reads from node 0 a line homed on node 3 and dirtied by node 1,
// and the contention check needs more than its two baseline requesters.
const minNodes = 4

// refuse reports why the checkup cannot run on p: p fails
// Params.Validate, or it has fewer than the 4 CMPs every check is built
// for. It returns nil for a machine the checkup can run on.
func refuse(p machine.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Nodes < minNodes {
		return fmt.Errorf("the checkup needs at least %d CMPs, got %d", minNodes, p.Nodes)
	}
	return nil
}

// All runs every check sequentially against the given parameters
// (typically machine.DefaultParams, possibly with a different node count).
func All(p machine.Params) []Result { return AllParallel(p, 1) }

// AllParallel runs the checks on up to jobs workers (0 = one per host
// CPU). Every check builds its own machines, so they are independent;
// results keep the canonical check order regardless of completion order.
// A machine refuse turns down runs no check: the one failed result names
// the reason.
func AllParallel(p machine.Params, jobs int) []Result {
	if err := refuse(p); err != nil {
		return []Result{verdict("machine", false, "", err)}
	}
	checks := []func(machine.Params) Result{
		CheckL1Hit,
		CheckL2Hit,
		CheckLocalMiss,
		CheckRemoteMiss,
		CheckThreeHopDearer,
		CheckUpgradeCheaperThanMiss,
		CheckContentionMonotone,
		CheckDeterminism,
		CheckBreakdownConservation,
		CheckAStreamIsolation,
		CheckTokenBalance,
		CheckCoherenceSweep,
	}
	out := make([]Result, len(checks))
	pool.ForEach(jobs, len(checks), func(i int) { out[i] = checks[i](p) })
	return out
}

// Passed reports whether every result passed.
func Passed(rs []Result) bool {
	for _, r := range rs {
		if !r.Pass {
			return false
		}
	}
	return true
}

// Report renders the results as a checkup table.
func Report(rs []Result) string {
	out := ""
	for _, r := range rs {
		mark := "ok  "
		if !r.Pass {
			mark = "FAIL"
		}
		out += fmt.Sprintf("%s %-28s %s\n", mark, r.Name, r.Detail)
	}
	return out
}

// measure runs body on proc 0 of a fresh machine and returns its duration.
func measure(p machine.Params, body func(*machine.Proc)) (sim.Time, error) {
	m := machine.New(p)
	var d sim.Time
	m.Start(0, func(pr *machine.Proc) {
		t0 := pr.Ctx.Now()
		body(pr)
		d = pr.Ctx.Now() - t0
	})
	return d, m.Run()
}

// CheckL1Hit pins the L1 hit latency.
func CheckL1Hit(p machine.Params) Result {
	d, err := measure(p, func(pr *machine.Proc) {
		pr.Load(0)
		t0 := pr.Ctx.Now()
		pr.Load(0)
		d := pr.Ctx.Now() - t0
		if d != p.L1HitCycles {
			panic(fmt.Sprintf("L1 hit %d", d))
		}
	})
	_ = d
	return verdict("L1 hit latency", err == nil, fmt.Sprintf("%d cycle(s)", p.L1HitCycles), err)
}

// CheckL2Hit pins the L2 hit latency seen by the sibling processor.
func CheckL2Hit(p machine.Params) Result {
	m := machine.New(p)
	done := false
	var d sim.Time
	m.Start(0, func(pr *machine.Proc) { pr.Load(0); done = true })
	m.Start(1, func(pr *machine.Proc) {
		for !done {
			pr.Ctx.Advance(5)
		}
		t0 := pr.Ctx.Now()
		pr.Load(0)
		d = pr.Ctx.Now() - t0
	})
	err := m.Run()
	want := p.L1HitCycles + p.L2HitCycles
	return verdict("L2 hit latency", err == nil && d == want,
		fmt.Sprintf("measured %d, want %d", d, want), err)
}

// CheckLocalMiss pins the cold local-home miss to the Table 1 minimum.
func CheckLocalMiss(p machine.Params) Result {
	d, err := measure(p, func(pr *machine.Proc) { pr.Load(0) })
	want := p.L1HitCycles + p.L2HitCycles + p.Cyc(p.LocalMissNS)
	return verdict("local miss minimum", err == nil && d == want,
		fmt.Sprintf("measured %d cycles, want %d (= %d ns + hits)", d, want, p.LocalMissNS), err)
}

// CheckRemoteMiss pins the cold remote miss minimum.
func CheckRemoteMiss(p machine.Params) Result {
	d, err := measure(p, func(pr *machine.Proc) {
		pr.Load(shmem.Addr(p.LineBytes)) // home node 1
	})
	want := p.L1HitCycles + p.L2HitCycles + p.Cyc(p.RemoteMissNS)
	return verdict("remote miss minimum", err == nil && d == want,
		fmt.Sprintf("measured %d cycles, want %d (= %d ns + hits)", d, want, p.RemoteMissNS), err)
}

// CheckThreeHopDearer verifies dirty forwarding costs more than a clean
// remote fill.
func CheckThreeHopDearer(p machine.Params) Result {
	m := machine.New(p)
	phase := 0
	var clean, dirty sim.Time
	m.Start(2, func(pr *machine.Proc) { // node 1 dirties line B
		pr.Store(shmem.Addr(3 * p.LineBytes)) // home node 3, owner node 1
		phase = 1
	})
	m.Start(0, func(pr *machine.Proc) {
		for phase != 1 {
			pr.Ctx.Advance(5)
		}
		t0 := pr.Ctx.Now()
		pr.Load(shmem.Addr(2 * p.LineBytes)) // clean remote (home 2)
		clean = pr.Ctx.Now() - t0
		t0 = pr.Ctx.Now()
		pr.Load(shmem.Addr(3 * p.LineBytes)) // dirty 3-hop
		dirty = pr.Ctx.Now() - t0
	})
	err := m.Run()
	return verdict("3-hop dearer than 2-hop", err == nil && dirty > clean,
		fmt.Sprintf("clean %d, dirty %d", clean, dirty), err)
}

// CheckUpgradeCheaperThanMiss verifies ownership upgrades skip the memory
// fetch.
func CheckUpgradeCheaperThanMiss(p machine.Params) Result {
	var up, miss sim.Time
	d, err := measure(p, func(pr *machine.Proc) {
		t0 := pr.Ctx.Now()
		pr.Load(0)
		miss = pr.Ctx.Now() - t0
		t0 = pr.Ctx.Now()
		pr.Store(0)
		up = pr.Ctx.Now() - t0
	})
	_ = d
	return verdict("upgrade cheaper than miss", err == nil && up < miss && up > p.L1HitCycles,
		fmt.Sprintf("upgrade %d, miss %d", up, miss), err)
}

// CheckContentionMonotone verifies queueing at a hot home node grows
// latency relative to an uncontended run.
func CheckContentionMonotone(p machine.Params) Result {
	run := func(procs int) sim.Time {
		m := machine.New(p)
		var total sim.Time
		for g := 0; g < procs; g++ {
			g := g
			m.Start(2*g, func(pr *machine.Proc) {
				t0 := pr.Ctx.Now()
				for k := 0; k < 16; k++ {
					// All lines homed at node 0.
					pr.Load(shmem.Addr(uint64(p.LineBytes) * uint64(p.Nodes) * uint64(k+g*64)))
				}
				if pr.Node.ID == 1 {
					total = pr.Ctx.Now() - t0
				}
			})
		}
		if err := m.Run(); err != nil {
			return 0
		}
		return total
	}
	solo := run(2)
	crowd := run(p.Nodes)
	return verdict("contention monotone", solo > 0 && crowd > solo,
		fmt.Sprintf("2 requesters: %d, %d requesters: %d", solo, p.Nodes, crowd), nil)
}

// CheckDeterminism verifies identical runs produce identical wall times.
func CheckDeterminism(p machine.Params) Result {
	run := func() (uint64, error) {
		rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSlipstream, Sched: omp.Dynamic, Chunk: 8})
		if err != nil {
			return 0, err
		}
		arr := rt.NewF64(1024)
		err = rt.Run(func(m *omp.Thread) {
			m.Parallel(func(t *omp.Thread) {
				t.For(0, 1024, func(i int) {
					t.StF(arr, i, t.LdF(arr, i)+1)
					t.Compute(3)
				})
			})
		})
		return rt.M.WallTime(), err
	}
	a, err1 := run()
	b, err2 := run()
	ok := err1 == nil && err2 == nil && a == b
	return verdict("determinism", ok, fmt.Sprintf("run1 %d, run2 %d", a, b), err1)
}

// CheckBreakdownConservation verifies every simulated cycle of an active
// processor is attributed to exactly one category.
func CheckBreakdownConservation(p machine.Params) Result {
	m := machine.New(p)
	ok := true
	detail := ""
	for g := 0; g < 2*p.Nodes; g++ {
		g := g
		m.Start(g, func(pr *machine.Proc) {
			start := pr.Ctx.Now()
			for k := 0; k < 50; k++ {
				pr.Load(shmem.Addr(uint64(g*64*p.LineBytes + k*p.LineBytes)))
				pr.Compute(7)
				old := pr.SetCategory(stats.CatLock)
				pr.Wait(3)
				pr.SetCategory(old)
			}
			if got := pr.Bd.Total(); got != uint64(pr.Ctx.Now()-start) {
				ok = false
				detail = fmt.Sprintf("proc %d: breakdown %d != elapsed %d", g, got, pr.Ctx.Now()-start)
			}
		})
	}
	err := m.Run()
	if detail == "" {
		detail = "all cycles attributed"
	}
	return verdict("breakdown conservation", err == nil && ok, detail, err)
}

// CheckAStreamIsolation verifies A-stream stores never reach backing
// memory.
func CheckAStreamIsolation(p machine.Params) Result {
	rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSlipstream})
	if err != nil {
		return verdict("A-stream isolation", false, "", err)
	}
	arr := rt.NewF64(256)
	err = rt.Run(func(m *omp.Thread) {
		m.Parallel(func(t *omp.Thread) {
			if t.IsA() {
				for i := 0; i < 256; i++ {
					t.StF(arr, i, -1)
				}
			}
			t.Compute(500)
		})
	})
	ok := err == nil
	for i := 0; i < 256 && ok; i++ {
		if arr.Get(i) != 0 {
			ok = false
		}
	}
	return verdict("A-stream isolation", ok, "speculative stores never commit", err)
}

// CheckTokenBalance verifies pairs end every program with balanced token
// counters.
func CheckTokenBalance(p machine.Params) Result {
	rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.L1})
	if err != nil {
		return verdict("token balance", false, "", err)
	}
	err = rt.Run(func(m *omp.Thread) {
		for r := 0; r < 2; r++ {
			m.Parallel(func(t *omp.Thread) {
				for b := 0; b < 3; b++ {
					t.Compute(100)
					t.Barrier()
				}
			})
		}
	})
	ok := err == nil
	detail := "inserted == consumed on every CMP"
	for _, nd := range rt.M.Nodes {
		if nd.Regs.ABarriers != nd.Regs.RBarriers {
			ok = false
			detail = fmt.Sprintf("node %d: A=%d R=%d", nd.ID, nd.Regs.ABarriers, nd.Regs.RBarriers)
		}
	}
	return verdict("token balance", ok, detail, err)
}

// CheckCoherenceSweep runs randomized traffic and relies on the machine's
// end-of-run directory/L2 cross-check.
func CheckCoherenceSweep(p machine.Params) Result {
	m := machine.New(p)
	for g := 0; g < 2*p.Nodes; g++ {
		g := g
		m.Start(g, func(pr *machine.Proc) {
			x := uint64(g)*2654435761 + 99
			for i := 0; i < 400; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				addr := shmem.Addr((x >> 16) % (64 * 1024))
				if x%3 == 0 {
					pr.Store(addr)
				} else {
					pr.Load(addr)
				}
			}
		})
	}
	err := m.Run()
	return verdict("coherence sweep", err == nil, "directory/L2 cross-check after random traffic", err)
}

// verdict assembles a Result, folding an error into the detail.
func verdict(name string, pass bool, detail string, err error) Result {
	if err != nil {
		pass = false
		detail = err.Error()
	}
	return Result{Name: name, Pass: pass, Detail: detail}
}
