package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/store"
)

// Layer probes: small programs that time one mechanism of one layer
// through its public calls. They run only in traced runs; their figures
// attribute time, they are not end-to-end metrics.

type probeResults struct {
	advanceNS, callbackNS                     float64
	l1HitNS, remoteNS                         float64
	barrierNS, slipBarrierNS, chunkNS, taskNS float64
	appendUS, appendFsyncMS, resultPutMS      float64
}

func (p probeResults) set(rep *report) {
	rep.set("sim.advance_ns", p.advanceNS)
	rep.set("sim.callback_ns", p.callbackNS)
	rep.set("machine.load_l1hit_ns", p.l1HitNS)
	rep.set("machine.load_remote_ns", p.remoteNS)
	rep.set("omp.barrier_ns", p.barrierNS)
	rep.set("core.slip_barrier_ns", p.slipBarrierNS)
	rep.set("omp.dyn_chunk_ns", p.chunkNS)
	rep.set("omp.task_ns", p.taskNS)
	rep.set("store.append_us", p.appendUS)
	rep.set("store.append_fsync_ms", p.appendFsyncMS)
	rep.set("store.result_put_ms", p.resultPutMS)
}

func runProbes(workDir string) (probeResults, error) {
	var p probeResults
	var err error
	p.advanceNS = probeAdvance(200000)
	p.callbackNS = probeCallback(2000000)
	if p.l1HitNS, err = probeLoad(200000, false); err != nil {
		return p, err
	}
	if p.remoteNS, err = probeLoad(20000, true); err != nil {
		return p, err
	}
	single := omp.Config{Machine: probeParams(), Mode: core.ModeSingle}
	slip := omp.Config{Machine: probeParams(), Mode: core.ModeSlipstream, Slipstream: core.G0}
	const barriers, chunks, tasks = 5000, 20000, 2000
	if p.barrierNS, err = probeRegion(single, barriers, func(t *omp.Thread) {
		for i := 0; i < barriers; i++ {
			t.Barrier()
		}
	}); err != nil {
		return p, err
	}
	if p.slipBarrierNS, err = probeRegion(slip, barriers, func(t *omp.Thread) {
		for i := 0; i < barriers; i++ {
			t.Barrier()
		}
	}); err != nil {
		return p, err
	}
	if p.chunkNS, err = probeRegion(single, chunks, func(t *omp.Thread) {
		t.ForSched(omp.Dynamic, 1, 0, chunks, false, func(int) {})
	}); err != nil {
		return p, err
	}
	if p.taskNS, err = probeRegion(single, tasks, func(t *omp.Thread) {
		t.Master(func() {
			for i := 0; i < tasks; i++ {
				t.Task(func(c *omp.Thread) { c.Compute(1) })
			}
		})
		t.TaskBarrier()
	}); err != nil {
		return p, err
	}
	if err := probeStore(&p, workDir); err != nil {
		return p, err
	}
	return p, nil
}

// probeParams is a two-CMP machine: the smallest with a remote home.
func probeParams() machine.Params {
	p := machine.DefaultParams()
	p.Nodes = 2
	return p
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeAdvance times one Context.Advance: a park and a resume through
// the engine.
func probeAdvance(n int) float64 {
	e := sim.NewEngine()
	e.Spawn("probe", 0, func(c *sim.Context) {
		for i := 0; i < n; i++ {
			c.Advance(1)
		}
	})
	t0 := time.Now()
	_ = e.Run() // a single context that only advances cannot deadlock
	return perOp(time.Since(t0), n)
}

// probeCallback times one Engine.At callback event.
func probeCallback(n int) float64 {
	e := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			e.At(e.Now()+1, tick)
		}
	}
	e.At(0, tick)
	t0 := time.Now()
	_ = e.Run() // callbacks only: nothing can park
	return perOp(time.Since(t0), n)
}

// probeLoad times Proc.Load on processor 0: an L1 hit on one address,
// or, with remote set, a fresh line homed on the other CMP every time.
func probeLoad(n int, remote bool) (float64, error) {
	p := probeParams()
	m := machine.New(p)
	perLine := p.LineBytes / 8
	stride := 2 * perLine // every other line: all homed on the same CMP
	arr := shmem.NewF64(m.Space, n*stride+stride, p.LineBytes)
	first := 0
	for m.Dir.Home(m.LineOf(arr.Addr(first))) != 1 {
		first += perLine
	}
	m.Start(0, func(pr *machine.Proc) {
		for i := 0; i < n; i++ {
			if remote {
				pr.Load(arr.Addr(first + i*stride))
			} else {
				pr.Load(arr.Addr(first))
			}
		}
	})
	t0 := time.Now()
	if err := m.Run(); err != nil {
		return 0, fmt.Errorf("load probe: %w", err)
	}
	d := time.Since(t0)
	if remote && m.Procs[0].Remote < uint64(n) {
		return 0, fmt.Errorf("load probe: %d of %d loads were remote misses", m.Procs[0].Remote, n)
	}
	return perOp(d, n), nil
}

// probeRegion times one parallel region of body and divides by ops.
func probeRegion(cfg omp.Config, ops int, body func(*omp.Thread)) (float64, error) {
	rt, err := omp.New(cfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = rt.Run(func(m *omp.Thread) { m.Parallel(body) })
	if err != nil {
		return 0, fmt.Errorf("omp probe: %w", err)
	}
	return perOp(time.Since(t0), ops), nil
}

// probeStore times journal appends with and without fsync and result
// store puts, on a temporary directory inside the work dir.
func probeStore(p *probeResults, workDir string) error {
	dir, err := os.MkdirTemp(workDir, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := store.Open(filepath.Join(dir, "journal"), 0)
	if err != nil {
		return err
	}
	defer j.Close()
	timeAppends := func(n int, sync bool) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r := store.Record{Job: fmt.Sprintf("job-%d", i), Key: strings.Repeat("ab", 32), State: "queued", Attempts: 1}
			if err := j.Append(r, sync); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	const appends, syncs, puts = 2000, 40, 40
	d, err := timeAppends(appends, false)
	if err != nil {
		return err
	}
	p.appendUS = perOp(d, appends) / 1e3
	if d, err = timeAppends(syncs, true); err != nil {
		return err
	}
	p.appendFsyncMS = perOp(d, syncs) / 1e6
	rs, err := store.OpenResults(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	val := []byte(strings.Repeat("result line of a rendered table\n", 64))
	t0 := time.Now()
	for i := 0; i < puts; i++ {
		if err := rs.Put(fmt.Sprintf("%064x", i+1), val); err != nil {
			return err
		}
	}
	p.resultPutMS = perOp(time.Since(t0), puts) / 1e6
	return nil
}
