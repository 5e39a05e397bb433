// Package core implements slipstream execution mode, the paper's primary
// contribution: running each parallel task redundantly on the two
// processors of a CMP, with the speculative A-stream skipping shared-memory
// stores and synchronization so that it runs ahead and prefetches into the
// shared L2 for the true R-stream.
//
// The package provides:
//
//   - the SLIPSTREAM directive and OMP_SLIPSTREAM environment-variable
//     semantics (§3.3): synchronization type (GLOBAL_SYNC, LOCAL_SYNC,
//     RUNTIME_SYNC, NONE) and initial token count, with region settings
//     taking precedence over the global setting without overriding it;
//   - the token-semaphore protocol of Figure 1 that bounds how far the
//     A-stream runs ahead and detects divergence;
//   - the A-stream store policy (skip, or convert to an exclusive prefetch
//     when the streams are in the same session and the bus is idle, §5.1);
//   - the scheduling-decision handoff used with dynamic and guided
//     scheduling (§3.2.2); and
//   - divergence recovery (§2.2).
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/stats"
)

// Mode selects how the machine's processors are used for a run (paper §5.1
// compares single, double, and slipstream execution).
type Mode int

// Execution modes.
const (
	ModeSingle     Mode = iota // one task per CMP, second processor idle
	ModeDouble                 // two independent tasks per CMP
	ModeSlipstream             // one task per CMP, run redundantly as A+R
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeSingle:
		return "single"
	case ModeDouble:
		return "double"
	case ModeSlipstream:
		return "slipstream"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// SyncType selects the A–R synchronization method (§2.2, §3.3): where the
// R-stream inserts tokens (barrier entry = local, barrier exit = global),
// or NONE to disable slipstream, or RUNTIME to defer to OMP_SLIPSTREAM.
type SyncType int

// Synchronization types accepted by the SLIPSTREAM directive.
const (
	GlobalSync  SyncType = iota // token inserted when R exits the barrier
	LocalSync                   // token inserted when R enters the barrier
	RuntimeSync                 // take type and tokens from OMP_SLIPSTREAM
	NoneSync                    // slipstream disabled
)

// String returns the directive spelling of the sync type.
func (s SyncType) String() string {
	switch s {
	case GlobalSync:
		return "GLOBAL_SYNC"
	case LocalSync:
		return "LOCAL_SYNC"
	case RuntimeSync:
		return "RUNTIME_SYNC"
	case NoneSync:
		return "NONE"
	}
	return fmt.Sprintf("sync(%d)", int(s))
}

// Config is a resolved slipstream setting: sync type plus initial tokens.
// The paper's shorthand "G0" is {GlobalSync, 0}; "L1" is {LocalSync, 1}.
type Config struct {
	Type   SyncType
	Tokens int
}

// G0 and L1 are the two configurations evaluated in the paper.
var (
	G0 = Config{Type: GlobalSync, Tokens: 0}
	L1 = Config{Type: LocalSync, Tokens: 1}
)

// String renders the config like the directive argument list.
func (c Config) String() string { return fmt.Sprintf("%s,%d", c.Type, c.Tokens) }

// Directive is the !$OMP SLIPSTREAM([type][,tokens]) annotation attached to
// a parallel region or set globally in the serial part (§3.3).
type Directive struct {
	Type      SyncType
	Tokens    int
	HasTokens bool
}

// If gates a directive on a runtime condition (§3.3: "This directive can
// be used in conjunction with conditional IF statements, to limit the use
// of slipstream when the number of CMPs involved in solving the problem
// exceeds a certain limit"). When cond is false the region runs with
// slipstream disabled.
func If(cond bool, d *Directive) *Directive {
	if cond {
		return d
	}
	return &Directive{Type: NoneSync}
}

// ParseEnv parses an OMP_SLIPSTREAM value such as "GLOBAL_SYNC,2",
// "LOCAL_SYNC", "NONE". The empty string means "not set" and yields the
// implementation default (global synchronization, zero tokens).
func ParseEnv(s string) (Config, error) {
	cfg := Config{Type: GlobalSync}
	s = strings.TrimSpace(s)
	if s == "" {
		return cfg, nil
	}
	parts := strings.Split(s, ",")
	switch strings.ToUpper(strings.TrimSpace(parts[0])) {
	case "GLOBAL_SYNC":
		cfg.Type = GlobalSync
	case "LOCAL_SYNC":
		cfg.Type = LocalSync
	case "NONE":
		cfg.Type = NoneSync
	default:
		return cfg, fmt.Errorf("core: OMP_SLIPSTREAM: unknown sync type %q", parts[0])
	}
	if len(parts) > 1 {
		n, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || n < 0 {
			return cfg, fmt.Errorf("core: OMP_SLIPSTREAM: bad token count %q", parts[1])
		}
		cfg.Tokens = n
	}
	if len(parts) > 2 {
		return cfg, fmt.Errorf("core: OMP_SLIPSTREAM: trailing arguments in %q", s)
	}
	return cfg, nil
}

// StoreAction is what an A-stream shared store becomes.
type StoreAction int

// A-stream store dispositions.
const (
	StoreSkip     StoreAction = iota // drop the store entirely
	StorePrefetch                    // issue a non-blocking exclusive prefetch
)

// Controller coordinates slipstream execution for one program run. It owns
// the global/region directive resolution and drives the per-CMP pair
// registers. All methods take the acting processor so that register access
// cost and wait time are charged to it.
type Controller struct {
	M       *machine.Machine
	Enabled bool   // slipstream mode active for this run
	Env     Config // resolved OMP_SLIPSTREAM value
	Global  Config // current global setting (serial-part directive)

	// recoveries counts divergence recoveries taken by A-streams.
	recoveries uint64

	// waits holds each processor's pair-register spin tests, indexed by
	// Proc.GID. The machine steps them between polls, so they are
	// allocated once here: a closure per wait would allocate.
	waits []pairWaits
}

// pairWaits is one processor's set of pair-register spin tests.
type pairWaits struct {
	region  regionWait
	token   tokenWait
	publish publishWait
	take    takeWait
}

// NewController builds a controller. env is the OMP_SLIPSTREAM value
// ("" = unset). When enabled is false every region resolves to NoneSync.
func NewController(m *machine.Machine, enabled bool, env string) (*Controller, error) {
	cfg, err := ParseEnv(env)
	if err != nil {
		return nil, err
	}
	if cfg.Type == NoneSync {
		enabled = false
	}
	return &Controller{M: m, Enabled: enabled, Env: cfg, Global: cfg, waits: make([]pairWaits, len(m.Procs))}, nil
}

// SetGlobal applies a serial-part SLIPSTREAM directive: it becomes the
// global setting until overridden by a later serial-part directive (§3.3).
func (c *Controller) SetGlobal(d Directive) {
	c.Global = c.resolve(&d)
}

// Effective resolves the configuration for a parallel region carrying
// directive d (nil = none). A region directive takes precedence but does
// not override the global setting (§3.3).
func (c *Controller) Effective(d *Directive) Config {
	if !c.Enabled {
		return Config{Type: NoneSync}
	}
	if d == nil {
		return c.Global
	}
	return c.resolve(d)
}

// resolve expands RUNTIME_SYNC and defaulted token counts.
func (c *Controller) resolve(d *Directive) Config {
	if d.Type == RuntimeSync {
		return c.Env
	}
	cfg := Config{Type: d.Type, Tokens: c.Global.Tokens}
	if d.HasTokens {
		cfg.Tokens = d.Tokens
	}
	return cfg
}

// Active reports whether cfg enables slipstream for a region.
func (c *Controller) Active(cfg Config) bool {
	return c.Enabled && cfg.Type != NoneSync
}

// Recoveries returns the number of divergence recoveries taken.
func (c *Controller) Recoveries() uint64 { return c.recoveries }

// reg returns the acting processor's pair registers, charging access cost.
func (c *Controller) reg(p *machine.Proc) *machine.PairRegs {
	p.Wait(c.M.P.RegAccessCycles)
	return &p.Node.Regs
}

// RPickupRegion records that the R-stream has entered parallel region seq
// and publishes the region's token allowance. The paired A-stream gates on
// this before using tokens, so a stale allowance from the previous region
// can never be consumed. Any residual scheduling decisions of the previous
// region are discarded along with the A-idle mark, so a recovered pair
// starts the region with a clean handshake.
func (c *Controller) RPickupRegion(p *machine.Proc, seq int64, cfg Config) {
	r := c.reg(p)
	r.Allowance = int64(cfg.Tokens)
	r.AIdle = 0
	r.RRegion = seq
}

// AAwaitRegion blocks the A-stream until its R-stream has picked up region
// seq. The wait (normally negligible) is charged as job-wait time.
func (c *Controller) AAwaitRegion(p *machine.Proc, seq int64) {
	w := &c.waits[p.GID].region
	w.seq = seq
	p.SpinRegs(stats.CatJobWait, w)
}

// regionWait is AAwaitRegion's test: the R-stream has picked up seq.
type regionWait struct{ seq int64 }

func (w *regionWait) Done(r *machine.PairRegs) bool { return r.RRegion >= w.seq }

// AStartRegion is the A-stream's region-entry hook: a pending recovery
// request (from a divergence detected in the previous region) is absorbed
// by resynchronizing the counters, and the idle mark is cleared — this
// A-stream participates again.
func (c *Controller) AStartRegion(p *machine.Proc) {
	r := c.reg(p)
	if r.Recover != 0 {
		r.ABarriers = r.RBarriers
		r.Recover = 0
		r.SysTaken = r.SysPosted
	}
	r.AIdle = 0
}

// AStoreAction decides what to do with an A-stream shared store: convert it
// to a non-blocking read-exclusive prefetch when the streams share a
// session (the A-stream has passed exactly as many barriers as its
// R-stream, §5.1) and the node bus is idle, otherwise skip it.
func (c *Controller) AStoreAction(p *machine.Proc) StoreAction {
	r := c.reg(p)
	if r.ABarriers == r.RBarriers && p.Node.BusIdle() {
		return StorePrefetch
	}
	return StoreSkip
}

// RBarrierEnter is the R-stream hook at barrier entry. With local
// synchronization the token is inserted here, making the A-stream locally
// synchronized. It also performs the divergence check of Figure 1: if the
// A-stream has fallen more than allowance+1 sessions behind, the R-stream
// requests recovery.
func (c *Controller) RBarrierEnter(p *machine.Proc, cfg Config) {
	r := c.reg(p)
	// An A-stream that already took recovery sits out the region; flagging
	// it again would only poison its next region entry.
	if r.AIdle == 0 && r.ABarriers+r.Allowance+1 < r.RBarriers {
		r.Recover = 1
		c.recoveries++
	}
	// Injected divergence: request recovery exactly as a real divergence
	// detection would (skipped while one is already pending or the
	// A-stream sits the region out).
	if r.AIdle == 0 && r.Recover == 0 && c.M.Faults.ForceDivergence(p.GID) {
		r.Recover = 1
		c.recoveries++
	}
	if cfg.Type == LocalSync {
		c.insertToken(r, p.GID)
	}
}

// insertToken advances the R-side token count unless the fault plan drops
// the token. A drop must arm recovery: the A-stream waiting on that token
// would otherwise spin forever on a semaphore nobody will post. Recovery
// resynchronizes the pair's counters, so a lost token costs time only.
func (c *Controller) insertToken(r *machine.PairRegs, gid int) {
	if r.AIdle == 0 && c.M.Faults.DropToken(gid) {
		if r.Recover == 0 {
			r.Recover = 1
			c.recoveries++
		}
		return
	}
	r.RBarriers++
}

// InsertTokenAt inserts one token into p's pair register without charging
// anyone: it models the barrier-completion propagation writing the
// hardware semaphore. The omp runtime calls it for global synchronization
// at the barrier's completion instant (the paper inserts the global token
// "before exiting the barrier", §2.2), so the A-stream may proceed once
// the barrier completes rather than when its R-stream wakes.
func (c *Controller) InsertTokenAt(p *machine.Proc) {
	c.insertToken(&p.Node.Regs, p.GID)
}

// ABarrier is the A-stream's barrier: instead of joining the team barrier
// it consumes one token, waiting if none is available. Wait time is charged
// as barrier synchronization. It returns true if a recovery request was
// observed and absorbed (the caller should abandon the current region).
func (c *Controller) ABarrier(p *machine.Proc) (recovered bool) {
	w := &c.waits[p.GID].token
	w.recovered = false
	p.SpinRegs(stats.CatBarrier, w)
	return w.recovered
}

// tokenWait is ABarrier's test: absorb a recovery request, or consume a
// token once one is available.
type tokenWait struct{ recovered bool }

func (w *tokenWait) Done(r *machine.PairRegs) bool {
	if r.Recover != 0 {
		absorbRecovery(r)
		w.recovered = true
		return true
	}
	if r.ABarriers < r.Allowance+r.RBarriers {
		r.ABarriers++
		return true
	}
	return false
}

// ARecoveryPending lets the A-stream poll for a recovery request at chunk
// boundaries without consuming a token.
func (c *Controller) ARecoveryPending(p *machine.Proc) bool {
	return c.reg(p).Recover != 0
}

// AAbsorbRecovery resynchronizes a recovering A-stream with its R-stream
// and marks it idle for the remainder of the region, so the R-stream stops
// waiting on the decision semaphore (the A-stream no longer consumes).
func (c *Controller) AAbsorbRecovery(p *machine.Proc) {
	absorbRecovery(c.reg(p))
}

// absorbRecovery resynchronizes the A-side counters with the R-side ones
// and marks the A-stream idle for the rest of the region.
func absorbRecovery(r *machine.PairRegs) {
	r.ABarriers = r.RBarriers
	r.Recover = 0
	r.AIdle = 1
	// Drain any undelivered scheduling decision: this A-stream will not
	// consume again until the next region.
	r.SysTaken = r.SysPosted
}

// RPublishDecision publishes a scheduling decision (or any syscall-class
// result) to the A-stream (§3.2.2). The R-stream first waits for the
// previous decision to be consumed — the pair register holds one decision —
// then writes it and posts the semaphore. Wait time is scheduling overhead.
func (c *Controller) RPublishDecision(p *machine.Proc, lo, hi int64) {
	w := &c.waits[p.GID].publish
	w.lo, w.hi = lo, hi
	p.SpinRegs(stats.CatSched, w)
}

// publishWait is RPublishDecision's test: post the decision once the
// register is free.
type publishWait struct{ lo, hi int64 }

func (w *publishWait) Done(r *machine.PairRegs) bool {
	if r.Recover != 0 || r.AIdle != 0 {
		// The A-stream is being recovered or has abandoned the region;
		// drop the handshake so the R-stream cannot deadlock against an
		// absent consumer.
		return true
	}
	if r.SysPosted == r.SysTaken {
		r.SchedLo, r.SchedHi = w.lo, w.hi
		r.SysPosted++
		return true
	}
	return false
}

// ATakeDecision blocks the A-stream until its R-stream publishes the next
// scheduling decision, then consumes and returns it. The bool result is
// false if a recovery request interrupted the wait.
func (c *Controller) ATakeDecision(p *machine.Proc) (lo, hi int64, ok bool) {
	w := &c.waits[p.GID].take
	*w = takeWait{}
	p.SpinRegs(stats.CatSched, w)
	return w.lo, w.hi, w.ok
}

// takeWait is ATakeDecision's test: stop on a recovery request, or take
// the next posted decision.
type takeWait struct {
	lo, hi int64
	ok     bool
}

func (w *takeWait) Done(r *machine.PairRegs) bool {
	if r.Recover != 0 {
		return true
	}
	if r.SysPosted > r.SysTaken {
		w.lo, w.hi, w.ok = r.SchedLo, r.SchedHi, true
		r.SysTaken++
		return true
	}
	return false
}

// InjectDivergence forces a recovery request on p's pair (test/failure
// injection support).
func (c *Controller) InjectDivergence(p *machine.Proc) {
	p.Node.Regs.Recover = 1
}

// WirePairs marks every node's processors as a slipstream pair: cpu 0 is
// the R-stream, cpu 1 the A-stream, and enables self-invalidation hints on
// A-streams when requested. Self-invalidation is tied to global
// synchronization (§3.2.1: "slipstream self-invalidation is enabled when
// synchronization model is ... global").
func (c *Controller) WirePairs(selfInvalidate bool) {
	for _, nd := range c.M.Nodes {
		r, a := nd.Procs[0], nd.Procs[1]
		r.Role, a.Role = stats.RoleR, stats.RoleA
		r.Pair, a.Pair = a, r
		a.SelfInval = selfInvalidate && c.Global.Type == GlobalSync
	}
}
