package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/stats"
)

// The paper workload drives the simulator through its public Go
// functions: the experiments runner for the timed passes, and
// omp.New → Kernel.Build → Runtime.Run → Instance.Verify for the traced
// replay of the same cells. Both run the Figure 2/3 matrix at the
// paper's 16 CMPs, test scale, with verification on; every cell starts
// with empty simulated caches.

const (
	paperNodes = 16
	paperScale = npb.ScaleTest
	// Minimum cell samples per run: the p90 of miss latency needs 100.
	minMissSamples = 100
	// Hit renders after each pass.
	hitsPerPass = 2000
	// hitWindow is the hit count of one window for hit_ms_p50;
	// hitTailWindow is the least hit count of one window for hit_ms_p99
	// (the 1000 a p99 needs).
	hitWindow     = 100
	hitTailWindow = 1000
	// setupReps is how often the set-up phase is repeated for its median.
	setupReps = 11
)

// matrix is the Figure 2/3 matrix in the runner's order.
type matrix struct {
	cells []paperCell
}

// paperCell is one (kernel, configuration) coordinate.
type paperCell struct {
	kernel npb.Kernel
	config string // configuration name as the runner names it
	cfg    omp.Config
}

func (c paperCell) label() string { return c.kernel.Name + "/" + c.config }

func newMatrix() *matrix {
	p := machine.DefaultParams()
	p.Nodes = paperNodes
	m := &matrix{}
	for _, k := range npb.Kernels() {
		for _, rc := range []struct {
			name string
			cfg  omp.Config
		}{
			{"single", omp.Config{Machine: p, Mode: core.ModeSingle}},
			{"double", omp.Config{Machine: p, Mode: core.ModeDouble}},
			{"slip-G0", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0}},
			{"slip-L1", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.L1}},
		} {
			m.cells = append(m.cells, paperCell{kernel: k, config: rc.name, cfg: rc.cfg})
		}
	}
	return m
}

// passOut is one pass's rendered figures and slipstream gain.
type passOut struct {
	rendered []byte
	gainPct  float64
	failed   int // cells that failed to run or verify
	static   *experiments.Suite
}

// render writes Figures 2 and 3: the bytes the digest covers.
func (p *passOut) render() []byte {
	var buf bytes.Buffer
	p.static.Fig2(&buf)
	p.static.Fig3(&buf)
	return buf.Bytes()
}

// pass runs the matrix once through the experiments runner at the given
// jobs setting and renders it. A non-nil clock times each cell from the
// runner's progress lines; it needs jobs = 1.
func (m *matrix) pass(ctx context.Context, jobs int, clock *cellClock) (*passOut, error) {
	o := experiments.Options{Nodes: paperNodes, Scale: paperScale, Verify: true, Jobs: jobs}
	var progress io.Writer
	if clock != nil {
		progress = clock
	}
	s, err := experiments.RunStaticCtx(ctx, o, progress)
	if err != nil {
		return nil, err
	}
	if clock != nil {
		clock.callDone()
	}
	out := &passOut{static: s, failed: len(s.Errors)}
	out.rendered = out.render()
	out.gainPct = out.slipGain()
	return out, nil
}

// slipGain is the mean over kernels of the best slipstream configuration
// against the better of single and double, in percent of simulated time.
func (p *passOut) slipGain() float64 {
	var gains []float64
	for _, rs := range p.static.Static {
		slip := minWall(rs, "slip-G0", "slip-L1")
		base := minWall(rs, "single", "double")
		if slip > 0 && base > 0 {
			gains = append(gains, 100*(float64(base)/float64(slip)-1))
		}
	}
	if len(gains) == 0 {
		return 0
	}
	return sum(gains) / float64(len(gains))
}

func minWall(rs map[string]experiments.Result, names ...string) uint64 {
	var best uint64
	for _, n := range names {
		if r, ok := rs[n]; ok && r.Wall > 0 && (best == 0 || r.Wall < best) {
			best = r.Wall
		}
	}
	return best
}

// cellClock turns the runner's progress lines into per-cell host times.
// With one job the runner prints one line as it starts each cell and
// runs the cells back to back, so a cell ends where the next one starts,
// and the last one ends when the call returns.
type cellClock struct {
	open  time.Time // start of the running cell; zero between calls
	cells []float64 // completed cell times, ms
}

func (c *cellClock) Write(p []byte) (int, error) {
	c.callDone()
	c.open = time.Now()
	return len(p), nil
}

// callDone closes the running cell.
func (c *cellClock) callDone() {
	if !c.open.IsZero() {
		c.cells = append(c.cells, ms(time.Since(c.open)))
	}
	c.open = time.Time{}
}

// setupTime is the host time of omp.New + Kernel.Build over every cell
// of the matrix, in a seed-shuffled order.
func (m *matrix) setupTime(rng *rand.Rand) (time.Duration, error) {
	var total time.Duration
	for _, i := range rng.Perm(len(m.cells)) {
		c := m.cells[i]
		t0 := time.Now()
		rt, err := omp.New(c.cfg)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.label(), err)
		}
		_ = c.kernel.Build(rt, paperScale)
		total += time.Since(t0)
	}
	return total, nil
}

func runPaper(c *runConfig) (*report, error) {
	m := newMatrix()
	if c.trace {
		return tracePaper(c, m)
	}
	rep := newReport()
	rng := rand.New(rand.NewSource(c.seed))
	ctx := context.Background()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := m.setupTime(rng)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()

	clock := &cellClock{}
	var passSecs, rssPeaks, hits []float64
	var last *passOut
	var l latencies
	start := time.Now()
	for time.Since(start) < time.Duration(c.seconds)*time.Second || len(clock.cells) < minMissSamples {
		// Each pass's memory peak starts from the same returned-to-the-OS
		// footprint, so it does not depend on where GC left the last one.
		debug.FreeOSMemory()
		resetPeakRSS()
		t0 := time.Now()
		p, err := m.pass(ctx, 1, clock)
		if err != nil {
			return nil, err
		}
		passSecs = append(passSecs, time.Since(t0).Seconds())
		rssPeaks = append(rssPeaks, peakRSSMiB(0))
		rep.attempted += len(m.cells)
		rep.failed += p.failed
		m.checkDigest(rep, p.rendered, fmt.Sprintf("pass %d", len(passSecs)))
		h, err := timeHits(rep, p, len(passSecs))
		if err != nil {
			return nil, err
		}
		hits = append(hits, h...)
		last = p
	}

	// The median pass: other tenants slow the host for seconds to
	// minutes at a time, and the median moved least between runs.
	matrixS := median(passSecs)
	rep.set("setup_s", median(setups))
	rep.set("matrix_s", matrixS)
	rep.set("sim_mref_per_s", float64(staticRecorded.mrefs)/matrixS)
	rep.set("slip_gain_pct", last.gainPct)
	rep.set("peak_rss_mb", median(rssPeaks))
	rep.set("miss_ms_p50", l.p(clock.cells, 0.5))
	rep.set("miss_ms_p90", l.p(clock.cells, 0.9))
	rep.set("hit_ms_p50", l.lowestWindow(hits, 0.5, hitWindow))
	rep.set("hit_ms_p99", l.medianWindow(hits, 0.99, hitTailWindow))
	rep.set("campaign_cells_per_s", float64(len(m.cells))/matrixS)
	if l.err != nil {
		return nil, l.err
	}
	rep.notef("%s: %d passes of %d cells, %d cell samples, %d hit renders; pass times %.3f s; pass peaks %.1f MiB",
		c.workload, len(passSecs), len(m.cells), len(clock.cells), len(hits), passSecs, rssPeaks)
	rep.notef("%s", referenceLine(last.gainPct))
	return rep, nil
}

// timeHits serves hitsPerPass hits of one pass and returns their times
// in ms. A hit serves an already computed matrix: it re-renders the
// figures from the pass's results, and the bytes must equal the pass
// output. Every batch of hits starts from a collected heap, so the
// garbage the pass left does not land on the first hits.
//
// A render is timed in its thread's CPU time: on an otherwise idle
// process that is its latency, minus the moments the host gave the CPU
// to another tenant, which swamp a sub-millisecond operation.
func timeHits(rep *report, p *passOut, pass int) ([]float64, error) {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]float64, hitsPerPass)
	for i := range out {
		c0, err := threadCPU()
		got := p.render()
		c1, err1 := threadCPU()
		if err = errors.Join(err, err1); err != nil {
			return nil, err
		}
		out[i] = ms(c1 - c0)
		rep.attempted++
		rep.check(bytes.Equal(got, p.rendered), "pass %d hit %d: re-rendered figures differ from the pass output", pass, i)
	}
	return out, nil
}

// referenceLine sets the measured slipstream gain beside the paper's.
func referenceLine(gain float64) string {
	return fmt.Sprintf("reference: slip_gain_pct %.2f%% (static) vs paper ≈14%% — a test-scale model against the paper-scale hardware", gain)
}

func (m *matrix) checkDigest(rep *report, rendered []byte, what string) {
	checkOutput(rep, rendered, staticRecorded.output, what)
}

// checkOutput fails the run when rendered does not hash to want.
func checkOutput(rep *report, rendered []byte, want, what string) {
	got := digest(rendered)
	rep.check(got == want, "%s: rendered figures digest %s, recorded %s", what, got, want)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ---- Traced run -------------------------------------------------------------

// cellCounters are one cell's simulated counters, read through public
// fields after the run.
type cellCounters struct {
	mrefs, l1Hits, l1Misses, l2Hits, l2Misses, l2Refs, remote, fills3hop, waitCycles uint64
	bd                                                                               stats.Breakdown
	aTimely, aLate, aOnly                                                            uint64
	recoveries, tasks, steals, inlined                                               uint64
}

func readCounters(rt *omp.Runtime) cellCounters {
	var c cellCounters
	m := rt.M
	for _, p := range m.Procs {
		c.mrefs += p.Loads + p.Stores
		c.l1Hits += p.L1.Hits
		c.l1Misses += p.L1.Misses
		c.l2Misses += p.L2Misses
		c.remote += p.Remote
	}
	for _, nd := range m.Nodes {
		c.l2Hits += nd.L2.Hits
		c.l2Refs += nd.L2.Hits + nd.L2.Misses
		for _, r := range []interface{ WaitTotal() uint64 }{nd.Bus, nd.NIIn, nd.NIOut, nd.Mem, nd.DC} {
			c.waitCycles += r.WaitTotal()
		}
	}
	c.fills3hop = m.Proto.DirtyFwd
	c.bd = m.TotalBreakdown()
	for k := range m.Class.Counts[stats.RoleA] {
		c.aTimely += m.Class.Counts[stats.RoleA][k][stats.OutTimely]
		c.aLate += m.Class.Counts[stats.RoleA][k][stats.OutLate]
		c.aOnly += m.Class.Counts[stats.RoleA][k][stats.OutOnly]
	}
	c.recoveries = rt.SS.Recoveries()
	c.tasks, c.steals, c.inlined = rt.TasksExecuted(), rt.TaskSteals(), rt.TasksInlined()
	return c
}

func (c *cellCounters) add(o cellCounters) {
	c.mrefs += o.mrefs
	c.l1Hits += o.l1Hits
	c.l1Misses += o.l1Misses
	c.l2Hits += o.l2Hits
	c.l2Misses += o.l2Misses
	c.l2Refs += o.l2Refs
	c.remote += o.remote
	c.fills3hop += o.fills3hop
	c.waitCycles += o.waitCycles
	c.bd.AddAll(&o.bd)
	c.aTimely += o.aTimely
	c.aLate += o.aLate
	c.aOnly += o.aOnly
	c.recoveries += o.recoveries
	c.tasks += o.tasks
	c.steals += o.steals
	c.inlined += o.inlined
}

// replayed is the outcome of replaying a set of cells one at a time.
type replayed struct {
	results  []experiments.Result
	counters []cellCounters
	total    cellCounters
	cellsMS  float64 // Σ cell spans
	failed   int
}

// replayCells runs each cell through omp.New → Kernel.Build →
// Runtime.Run → Instance.Verify under its own spans, then reads the
// counters. It builds the same experiments.Result the runner would.
func replayCells(tr *tracer, cells []paperCell, scale npb.Scale) (*replayed, error) {
	out := &replayed{}
	for _, c := range cells {
		req := c.label()
		cell := tr.begin("cell", req, 0)
		sp := tr.begin("omp.New", req, cell)
		rt, err := omp.New(c.cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req, err)
		}
		sp = tr.begin("Kernel.Build", req, cell)
		inst := c.kernel.Build(rt, scale)
		tr.end(sp)
		sp = tr.begin("Runtime.Run", req, cell)
		err = rt.Run(inst.Program)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("Instance.Verify", req, cell)
			err = inst.Verify()
			tr.end(sp)
		}
		tr.end(cell)
		if err != nil {
			out.failed++
			out.results = append(out.results, experiments.Result{})
			out.counters = append(out.counters, cellCounters{})
			continue
		}
		out.results = append(out.results, experiments.Result{
			Kernel:     c.kernel.Name,
			Config:     c.config,
			Size:       inst.Size,
			Wall:       rt.M.WallTime(),
			Breakdown:  rt.M.TotalBreakdown(),
			Class:      rt.M.Class,
			Recoveries: rt.SS.Recoveries(),
			Faults:     rt.FaultsInjected(),
		})
		cc := readCounters(rt)
		out.counters = append(out.counters, cc)
		out.total.add(cc)
	}
	out.cellsMS = tr.total("cell")
	return out, nil
}

// suite reassembles replayed results into the runner's suite type so
// the figures render from them exactly as from a runner pass.
func (m *matrix) suite(results []experiments.Result) *passOut {
	tbl := map[string]map[string]experiments.Result{} // kernel → config → result
	for i, c := range m.cells {
		if tbl[c.kernel.Name] == nil {
			tbl[c.kernel.Name] = map[string]experiments.Result{}
		}
		// A zero Wall means the cell failed; it is left out, as the runner does.
		if r := results[i]; r.Wall > 0 {
			tbl[c.kernel.Name][c.config] = r
		}
	}
	p := &passOut{static: &experiments.Suite{Static: tbl}}
	p.rendered = p.render()
	p.gainPct = p.slipGain()
	return p
}

// countersDigest fingerprints every simulated counter of every cell, so
// a pure-performance change can be shown to leave them all identical.
func countersDigest(cs []cellCounters) string {
	h := sha256.New()
	for _, c := range cs {
		fmt.Fprintf(h, "%+v\n", c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func tracePaper(c *runConfig, m *matrix) (*report, error) {
	rep := newReport()
	ctx := context.Background()

	// The untraced reference pass, at the untraced runs' jobs setting.
	var mem0, mem1 runtimeMem
	runtime.GC()
	mem0.read()
	t0 := time.Now()
	ref, err := m.pass(ctx, 1, nil)
	if err != nil {
		return nil, err
	}
	refMS := ms(time.Since(t0))
	mem1.read()
	rep.attempted += len(m.cells)
	rep.failed += ref.failed
	m.checkDigest(rep, ref.rendered, "reference pass (jobs=1)")

	// The same matrix with two jobs must render identically. This pass
	// also measures the worker pool.
	t2 := time.Now()
	alt, err := m.pass(ctx, 2, nil)
	if err != nil {
		return nil, err
	}
	altMS := ms(time.Since(t2))
	rep.attempted += len(m.cells)
	rep.failed += alt.failed
	rep.check(bytes.Equal(alt.rendered, ref.rendered), "jobs=2 output differs from jobs=1")

	// The traced replay: every cell on its own, under spans.
	tr := newTracer()
	t1 := time.Now()
	rp, err := replayCells(tr, m.cells, paperScale)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("render", c.workload, 0)
	replay := m.suite(rp.results)
	tr.end(sp)
	replayMS := ms(time.Since(t1))
	rep.attempted += len(m.cells)
	rep.failed += rp.failed
	rep.check(bytes.Equal(replay.rendered, ref.rendered), "replayed cells render differently from the runner pass")

	rep.check(rp.total.mrefs == staticRecorded.mrefs, "machine.mrefs %d, recorded %d", rp.total.mrefs, staticRecorded.mrefs)
	got := countersDigest(rp.counters)
	rep.check(got == staticRecorded.counters, "simulated counters digest %s, recorded %s", got, staticRecorded.counters)

	setSimLayer(rep, tr, rp)
	rep.set("experiments.render_ms", tr.total("render"))
	rep.set("pool.overhead_ms", 2*altMS-rp.cellsMS)
	rep.set("pool.parallel_eff", tr.total("Runtime.Run")/(2*altMS))
	rep.set("host.alloc_mb", mem1.allocMB-mem0.allocMB)
	rep.set("host.gc_count", mem1.gcs-mem0.gcs)
	pr, err := runProbes(c.workDir)
	if err != nil {
		return nil, err
	}
	pr.set(rep)
	setServiceLayerAbsent(rep)
	// The traced replay does the reference pass's work one cell at a
	// time under spans; its excess over the untraced pass is the cost of
	// tracing.
	rep.set("trace.overhead_pct", pct(replayMS-refMS, refMS))

	rep.notef("attribution (%s, replayed one cell at a time; reference pass %.0f ms at jobs=1):", c.workload, refMS)
	rep.notef("  setup  omp.New %.0f ms + Kernel.Build %.0f ms", tr.total("omp.New"), tr.total("Kernel.Build"))
	rep.notef("  run    Runtime.Run %.0f ms (engine share est. %.0f%% = sim.advance_ns × mrefs ÷ run)",
		tr.total("Runtime.Run"), pct(pr.advanceNS*float64(rp.total.mrefs)/1e6, tr.total("Runtime.Run")))
	rep.notef("  verify Instance.Verify %.0f ms", tr.total("Instance.Verify"))
	rep.notef("  render %.1f ms", tr.total("render"))
	rep.notef("  pool   %.0f ms of worker time outside cells at jobs=2 (2 × %.0f ms pass − Σ cells)", 2*altMS-rp.cellsMS, altMS)
	rep.notef("  replay %.0f ms vs reference %.0f ms; tracer self time %.3f ms", replayMS, refMS, ms(tr.selfTime()))
	rep.notef("%s", referenceLine(replay.gainPct))
	rep.notef("simulated counters: mrefs %d, digest %s (recorded %s)", rp.total.mrefs, got, staticRecorded.counters)
	if err := tr.writeFile(spanPath(c)); err != nil {
		return nil, err
	}
	return rep, nil
}

// setSimLayer reports the simulator-layer metrics of a replay.
func setSimLayer(rep *report, tr *tracer, rp *replayed) {
	t := rp.total
	rep.set("machine.mrefs", float64(t.mrefs))
	rep.set("machine.l1_miss_pct", pct(float64(t.l1Misses), float64(t.l1Hits+t.l1Misses)))
	rep.set("machine.l2_miss_pct", pct(float64(t.l2Refs-t.l2Hits), float64(t.l2Refs)))
	rep.set("machine.remote_pct", pct(float64(t.remote), float64(t.l2Misses)))
	rep.set("machine.fills_3hop", float64(t.fills3hop))
	rep.set("machine.contention_wait_kcycles", float64(t.waitCycles)/1000)
	aFills := float64(t.aTimely + t.aLate + t.aOnly)
	rep.set("core.a_timely_pct", pct(float64(t.aTimely), aFills))
	rep.set("core.a_late_pct", pct(float64(t.aLate), aFills))
	rep.set("core.a_only_pct", pct(float64(t.aOnly), aFills))
	rep.set("omp.new_ms", tr.total("omp.New"))
	rep.set("omp.run_ms", tr.total("Runtime.Run"))
	rep.set("omp.run_ns_per_mref", tr.total("Runtime.Run")*1e6/nonZero(float64(t.mrefs)))
	sh := t.bd.Shares()
	rep.set("omp.busy_pct", 100*sh[stats.CatBusy])
	rep.set("omp.mem_pct", 100*sh[stats.CatMem])
	rep.set("omp.lock_pct", 100*sh[stats.CatLock])
	rep.set("omp.barrier_pct", 100*sh[stats.CatBarrier])
	rep.set("omp.jobwait_pct", 100*sh[stats.CatJobWait])
	rep.set("npb.build_ms", tr.total("Kernel.Build"))
	rep.set("npb.verify_ms", tr.total("Instance.Verify"))
}

// nonZero guards a divisor against zero.
func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// threadCPU returns the CPU time the calling OS thread has used, to the
// nanosecond (clock_gettime CLOCK_THREAD_CPUTIME_ID, Linux).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// runtimeMem is a snapshot of the process's cumulative allocation and
// GC counters.
type runtimeMem struct{ allocMB, gcs float64 }

func (m *runtimeMem) read() {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	m.allocMB, m.gcs = float64(s.TotalAlloc)/(1<<20), float64(s.NumGC)
}

func spanPath(c *runConfig) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", c.workDir, c.workload, c.seed)
}
