// Package omp is an OpenMP-style runtime for the simulated machine,
// structured the way the Omni compiler's generated code and runtime
// library are (paper §4.1): a pool of slave threads is created at program
// start and spins on a shared job flag; parallel regions are functions the
// master publishes to the pool; worksharing constructs (for-loops with
// static/dynamic/guided schedules, single, master, sections, critical,
// atomic, reduction, flush) are runtime calls.
//
// Slipstream support (paper §3) is woven into the runtime exactly where
// the paper modifies Omni's library: barrier synchronization, construct
// handling, reduction handling, and task assignment. The same program runs
// unmodified in single, double, or slipstream mode.
package omp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/shmem"
	"repro/internal/stats"
)

// Schedule selects the worksharing schedule for parallel loops.
type Schedule int

// Loop schedules.
const (
	Static Schedule = iota
	Dynamic
	Guided
)

// String returns the schedule name.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("sched(%d)", int(s))
}

// Config describes one run of a program.
type Config struct {
	Machine machine.Params
	Mode    core.Mode

	// Slipstream is the global slipstream setting (used when Mode is
	// ModeSlipstream and Env is empty). The zero value is the paper's
	// default: zero-token global synchronization.
	Slipstream core.Config
	// Env, when non-empty, is the OMP_SLIPSTREAM environment value and
	// takes the place of Slipstream (runtime control of the same binary).
	Env string
	// SelfInvalidate enables A-stream self-invalidation hints (only
	// effective under global synchronization).
	SelfInvalidate bool

	Sched Schedule // default loop schedule
	Chunk int      // dynamic/guided chunk size (0 = 1, the Omni default)

	// Faults, when non-nil with a positive rate, arms a deterministic
	// fault plan for the run: machine-level latency faults, forced
	// divergences and token losses in the slipstream protocol, and
	// straggler threads in the scheduler. Faults cost time, never
	// correctness — injected runs still verify.
	Faults *faults.Config

	// TaskDequeCap overrides the per-thread task deque capacity (0 = the
	// default; spawns past a full deque execute undeferred).
	TaskDequeCap int
	// TaskIDBudget overrides the per-thread, per-region explicit task ID
	// budget (0 = the default; exhausted spawns execute undeferred).
	TaskIDBudget int
}

// job is one published parallel region.
type job struct {
	fn  func(*Thread)
	cfg core.Config // resolved slipstream config for this region
}

// Runtime is the runtime library instance for one program run.
type Runtime struct {
	Cfg Config
	M   *machine.Machine
	SS  *core.Controller

	team     []*Thread // master + R/normal slaves (the OpenMP team)
	aTeam    []*Thread // A-stream shadows (slipstream mode only)
	teamSize int

	// Shared runtime state (lives in simulated shared memory).
	jobSeq   *shmem.I64 // [0]: latest published region sequence (-1 ends)
	barCount *shmem.I64
	barSense *shmem.I64

	jobs []*job // indexed by region sequence (entry 0 unused)

	critLocks map[string]*Lock
	singles   map[[2]int]*shmem.I64
	reduces   map[[2]int]*shmem.F64
	loops     map[[2]int]*loopState
	taskbars  map[[2]int]*shmem.I64

	// tasks is the work-stealing task scheduler state (task.go), created
	// lazily on the first task construct so task-free programs keep a
	// byte-identical shared-memory layout.
	tasks *taskRT

	// g0Pending holds R-streams whose global-sync token should be inserted
	// at the current barrier's completion instant (§2.2: the token goes in
	// "before exiting the barrier").
	g0Pending []*machine.Proc
}

// loopState is the shared scheduler state of one dynamic/guided/affinity
// loop instance: a next-iteration counter (per thread for affinity, with
// end holding the block limits), lock-protected for guided schedules.
type loopState struct {
	lock *Lock
	next *shmem.I64
	end  *shmem.I64
}

// New builds a machine and runtime for cfg. An invalid machine is an
// error, not a panic in machine.New.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == core.ModeSlipstream {
		cfg.Machine.TrackClass = true
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	m := machine.New(cfg.Machine)
	// Each run gets its own injector, so concurrent runs of the same plan
	// stay independent and each is deterministic in isolation.
	m.Faults = faults.New(cfg.Faults)
	ss, err := core.NewController(m, cfg.Mode == core.ModeSlipstream, cfg.Env)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == core.ModeSlipstream && cfg.Env == "" {
		ss.SetGlobal(core.Directive{Type: cfg.Slipstream.Type, Tokens: cfg.Slipstream.Tokens, HasTokens: true})
	}
	rt := &Runtime{
		Cfg:       cfg,
		M:         m,
		SS:        ss,
		critLocks: make(map[string]*Lock),
		singles:   make(map[[2]int]*shmem.I64),
		reduces:   make(map[[2]int]*shmem.F64),
		loops:     make(map[[2]int]*loopState),
		taskbars:  make(map[[2]int]*shmem.I64),
		jobs:      []*job{nil},
	}
	rt.jobSeq = rt.NewI64(1)
	rt.barCount = rt.NewI64(1)
	rt.barSense = rt.NewI64(1)

	switch cfg.Mode {
	case core.ModeSingle:
		rt.teamSize = cfg.Machine.Nodes
		for i := 0; i < rt.teamSize; i++ {
			rt.team = append(rt.team, &Thread{rt: rt, id: i, P: m.Procs[2*i]})
		}
	case core.ModeDouble:
		rt.teamSize = 2 * cfg.Machine.Nodes
		for i := 0; i < rt.teamSize; i++ {
			rt.team = append(rt.team, &Thread{rt: rt, id: i, P: m.Procs[i]})
		}
	case core.ModeSlipstream:
		rt.teamSize = cfg.Machine.Nodes
		ss.WirePairs(cfg.SelfInvalidate)
		for i := 0; i < rt.teamSize; i++ {
			rt.team = append(rt.team, &Thread{rt: rt, id: i, P: m.Procs[2*i]})
			rt.aTeam = append(rt.aTeam, &Thread{rt: rt, id: i, P: m.Procs[2*i+1], isA: true})
		}
	default:
		return nil, fmt.Errorf("omp: unknown mode %v", cfg.Mode)
	}
	return rt, nil
}

// NumThreads returns the OpenMP team size (half the processors in
// slipstream mode, per paper §3.1 "Thread count/ID").
func (rt *Runtime) NumThreads() int { return rt.teamSize }

// Faults returns the run's fault injector (nil when no plan is armed; a
// nil injector is safe to query).
func (rt *Runtime) Faults() *faults.Injector { return rt.M.Faults }

// FaultsInjected reports how many faults the run's plan injected.
func (rt *Runtime) FaultsInjected() uint64 { return rt.M.Faults.Total() }

// NewF64 allocates a shared float64 array (untimed: program setup).
func (rt *Runtime) NewF64(n int) *shmem.F64 {
	return shmem.NewF64(rt.M.Space, n, rt.Cfg.Machine.LineBytes)
}

// NewI64 allocates a shared int64 array (untimed: program setup).
func (rt *Runtime) NewI64(n int) *shmem.I64 {
	return shmem.NewI64(rt.M.Space, n, rt.Cfg.Machine.LineBytes)
}

// NewLock allocates a lock whose word lives in shared memory.
func (rt *Runtime) NewLock() *Lock { return &Lock{w: rt.NewI64(1)} }

// Run executes program to completion: the master thread runs the serial
// code, everyone else enters the slave pool. It returns the machine-level
// error, if any (deadlock or coherence violation).
func (rt *Runtime) Run(program func(*Thread)) error {
	master := rt.team[0]
	rt.M.Start(master.P.GID, func(*machine.Proc) {
		program(master)
		rt.terminate(master)
	})
	for _, t := range rt.team[1:] {
		t := t
		rt.M.Start(t.P.GID, func(*machine.Proc) { rt.slaveLoop(t) })
	}
	for _, t := range rt.aTeam {
		t := t
		rt.M.Start(t.P.GID, func(*machine.Proc) { rt.slaveLoop(t) })
	}
	return rt.M.Run()
}

// terminate publishes the end-of-program sentinel so the pool drains.
func (rt *Runtime) terminate(master *Thread) {
	master.P.Store(rt.jobSeq.Addr(0))
	rt.jobSeq.Set(0, -1)
}

// slaveLoop is the pool loop: spin on the job flag, run the region, repeat.
// Job-wait spinning is attributed to the jobwait category (Figure 2/4).
func (rt *Runtime) slaveLoop(t *Thread) {
	poll := rt.Cfg.Machine.SpinPollCycles
	for {
		old := t.P.SetCategory(stats.CatJobWait)
		var seq int64
		for {
			t.P.Load(rt.jobSeq.Addr(0))
			seq = rt.jobSeq.Get(0)
			if seq < 0 || seq > t.lastSeq {
				break
			}
			t.P.Wait(poll)
		}
		t.P.SetCategory(old)
		if seq < 0 {
			return
		}
		t.lastSeq = seq
		t.runRegion(rt.jobs[seq], seq)
	}
}

// Parallel opens a parallel region executing body on every team thread
// (and, in slipstream mode, on every A-stream). Only the master may call
// it; nesting is not supported (execution mode is fixed per region, §3.1).
func (t *Thread) Parallel(body func(*Thread)) { t.ParallelD(nil, body) }

// ParallelTuned runs a parallel region whose slipstream configuration is
// chosen by an AutoTuner: the tuner cycles candidate configurations across
// repeated executions of the same region key and then locks in the
// fastest (the per-region exploration §5.1 calls for).
func (t *Thread) ParallelTuned(tu *core.AutoTuner, key string, body func(*Thread)) {
	dir := tu.Directive(key)
	start := t.P.Ctx.Now()
	t.ParallelD(dir, body)
	tu.Report(key, t.P.Ctx.Now()-start)
}

// ParallelD is Parallel with an attached SLIPSTREAM directive (nil = none).
func (t *Thread) ParallelD(dir *core.Directive, body func(*Thread)) {
	rt := t.rt
	if t.id != 0 || t.isA {
		panic("omp: Parallel called off the master thread")
	}
	if t.inRegion {
		panic("omp: nested parallel regions are not supported")
	}
	cfg := rt.SS.Effective(dir)
	if rt.tasks != nil {
		// Recycle the task tables before any thread can enter the region.
		rt.tasks.regionReset()
	}
	rt.jobs = append(rt.jobs, &job{fn: body, cfg: cfg})
	seq := int64(len(rt.jobs) - 1)
	// Publish the job: one store; the pool's spin loads take the line.
	t.P.Store(rt.jobSeq.Addr(0))
	rt.jobSeq.Set(0, seq)
	t.lastSeq = seq
	t.runRegion(rt.jobs[seq], seq)
}

// runRegion executes one parallel region on this thread, including the
// implicit end-of-region barrier.
func (t *Thread) runRegion(j *job, seq int64) {
	rt := t.rt
	t.inRegion = true
	t.regionCfg = j.cfg
	t.ssActive = rt.SS.Active(j.cfg)
	t.singleIdx = 0
	t.reduceIdx = 0
	t.loopIdx = 0
	t.orderedIdx = 0
	t.taskBarIdx = 0
	t.curTask = int32(t.id) + 1 // this thread's implicit task
	t.abandoned = false
	defer func() { t.inRegion = false }()

	if t.isA {
		if !t.ssActive {
			// Slipstream disabled for this region: the A-stream idles.
			return
		}
		rt.SS.AAwaitRegion(t.P, seq)
		rt.SS.AStartRegion(t.P)
		j.fn(t)
		t.Barrier() // consume the end-of-region token
		return
	}
	if t.ssActive {
		rt.SS.RPickupRegion(t.P, seq, j.cfg)
	}
	j.fn(t)
	t.Barrier() // implicit region-end barrier
}
