package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/faults"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PairRegs models the shared hardware registers of a CMP used for A–R
// stream synchronization (paper §2.2: "a shared register (or memory
// location) between the two processors in a CMP"). Accesses cost
// Params.RegAccessCycles and generate no coherence traffic. Counters are
// monotonic so that per-region re-initialization cannot race with a
// lagging partner: the token semaphore of Figure 1 is realized as
// available = Allowance + RBarriers - ABarriers.
type PairRegs struct {
	RBarriers int64 // tokens inserted by the R-stream (barriers passed)
	ABarriers int64 // tokens consumed by the A-stream (barriers skipped)
	Allowance int64 // current region's initial token count
	SysPosted int64 // syscall/scheduling decisions posted by the R-stream
	SysTaken  int64 // decisions consumed by the A-stream
	SchedLo   int64 // published scheduling decision: first iteration
	SchedHi   int64 // published scheduling decision: one past last
	Recover   int64 // recovery request flag (R sets, A clears)
	AIdle     int64 // A-stream abandoned the current region (recovery taken)
	RRegion   int64 // last parallel-region sequence the R-stream picked up
}

// Node is one dual-processor CMP with its slice of global memory.
type Node struct {
	ID    int
	M     *Machine
	L2    *cache.Cache
	Bus   *sim.Resource // intra-node bus
	NIIn  *sim.Resource // network interface, incoming
	NIOut *sim.Resource // network interface, outgoing
	Mem   *sim.Resource // memory controller
	DC    *sim.Resource // home directory controller (NILocalDCTime occupancy)
	Procs [2]*Proc
	Regs  PairRegs
}

// BusIdle reports whether the node bus is free at the current time; the
// slipstream runtime uses this to decide whether a skipped shared store can
// be converted into an exclusive prefetch ("this conversion occurs only
// when ... no resource contention exists", §5.1).
func (n *Node) BusIdle() bool { return n.Bus.BusyUntil() <= n.M.Eng.Now() }

// Proc is one simulated processor. Exactly one Proc executes at a time
// (driven by the sim engine), so simulator state needs no locking.
type Proc struct {
	GID  int // global index: node*2 + cpu
	CPU  int // 0 or 1 within the node
	Node *Node
	L1   *cache.Cache
	Ctx  *sim.Context

	// Slipstream wiring (set by the slipstream controller; nil/zero when
	// running in normal modes).
	Role      stats.Role
	Pair      *Proc // partner processor on the same CMP
	SelfInval bool  // A-stream reads send self-invalidation hints

	spin spinner // SpinLoad/SpinRegs state, stepped in engine context

	// Accounting.
	Bd        stats.Breakdown
	cat       stats.Category // category charged for wait cycles
	startTime sim.Time
	endTime   sim.Time
	started   bool
	Loads     uint64
	Stores    uint64
	L2Misses  uint64
	Remote    uint64
}

// Machine is the whole simulated multiprocessor.
type Machine struct {
	P     Params
	Eng   *sim.Engine
	Space *shmem.Space
	Dir   *directory.Directory
	Nodes []*Node
	Procs []*Proc
	Class stats.Class
	Proto ProtoStats
	Trace *trace.Buffer // nil unless Params.TraceCap > 0

	// Faults, when non-nil, injects deterministic hardware-level faults
	// (latency spikes, bus bursts, straggler CMPs) into the timing model.
	// It never touches data or coherence state: faults cost time only.
	Faults *faults.Injector

	lineShift uint

	// sharerScratch backs the invalidation fan-out's sharer list. Exactly
	// one processor executes at a time, so a single machine-wide scratch
	// buffer keeps the directory hot path allocation-free.
	sharerScratch [64]int
}

// New builds a machine from params.
func New(p Params) *Machine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		P:     p,
		Eng:   sim.NewEngine(),
		Space: shmem.NewSpace(),
		Dir:   directory.New(p.Nodes),
		Trace: trace.New(p.TraceCap),
		Nodes: make([]*Node, 0, p.Nodes),
		Procs: make([]*Proc, 0, 2*p.Nodes),
	}
	for 1<<m.lineShift != p.LineBytes {
		m.lineShift++
	}
	for n := 0; n < p.Nodes; n++ {
		nd := &Node{
			ID:    n,
			M:     m,
			L2:    cache.New(fmt.Sprintf("L2.%d", n), p.L2Bytes, p.L2Assoc, p.LineBytes),
			Bus:   sim.NewResource(fmt.Sprintf("bus.%d", n)),
			NIIn:  sim.NewResource(fmt.Sprintf("ni-in.%d", n)),
			NIOut: sim.NewResource(fmt.Sprintf("ni-out.%d", n)),
			Mem:   sim.NewResource(fmt.Sprintf("mem.%d", n)),
			DC:    sim.NewResource(fmt.Sprintf("dc.%d", n)),
		}
		for c := 0; c < 2; c++ {
			pr := &Proc{
				GID:  n*2 + c,
				CPU:  c,
				Node: nd,
				L1:   cache.New(fmt.Sprintf("L1.%d.%d", n, c), p.L1Bytes, p.L1Assoc, p.LineBytes),
				cat:  stats.CatMem,
			}
			pr.spin.p = pr
			nd.Procs[c] = pr
			m.Procs = append(m.Procs, pr)
		}
		m.Nodes = append(m.Nodes, nd)
	}
	return m
}

// LineOf maps an address to its cache line number.
func (m *Machine) LineOf(addr shmem.Addr) uint64 { return uint64(addr) >> m.lineShift }

// procNames holds preformatted context names for every possible processor
// (at most 64 nodes × 2), so Start does not format per run.
var procNames = func() [128]string {
	var names [128]string
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	return names
}()

// Start binds a program body to processor gid; the body begins executing at
// simulation time 0 when Run is called.
func (m *Machine) Start(gid int, body func(*Proc)) {
	p := m.Procs[gid]
	p.Ctx = m.Eng.Spawn(procNames[gid], 0, func(*sim.Context) {
		p.started = true
		p.startTime = m.Eng.Now()
		body(p)
		p.endTime = m.Eng.Now()
	})
}

// Run executes the simulation to completion, then classifies any
// still-resident unused fills (Figure 3/5 "Only" category).
func (m *Machine) Run() error {
	if err := m.Eng.Run(); err != nil {
		return err
	}
	m.finalizeClass()
	return m.CheckCoherence()
}

// finalizeClass flushes classification for fills that were never evicted
// and never referenced by the partner stream before the run ended.
func (m *Machine) finalizeClass() {
	if !m.P.TrackClass {
		return
	}
	for _, nd := range m.Nodes {
		nd.L2.ForEachResident(func(l *cache.Line) {
			m.classifyDrop(l)
		})
	}
}

// CheckCoherence validates directory invariants against L2 contents.
func (m *Machine) CheckCoherence() error {
	var err error
	m.Dir.ForEach(func(line uint64, e *directory.Entry) {
		if err != nil {
			return
		}
		if e2 := e.Check(); e2 != nil {
			err = fmt.Errorf("machine: line %#x: %w", line, e2)
			return
		}
		switch e.State {
		case directory.ModifiedSt:
			l := m.Nodes[e.Owner].L2.Peek(line)
			if l == nil || l.State != cache.Modified {
				err = fmt.Errorf("machine: line %#x: directory owner %d has no modified copy", line, e.Owner)
			}
		case directory.SharedSt:
			for _, n := range e.OtherSharers(-1) {
				l := m.Nodes[n].L2.Peek(line)
				if l == nil || l.State != cache.Shared {
					err = fmt.Errorf("machine: line %#x: directory sharer %d has no shared copy", line, n)
					return
				}
			}
		}
	})
	return err
}

// ---- Processor operations -------------------------------------------------

// Compute charges n busy cycles of computation. On a straggler node (an
// armed fault plan's CMP-slowdown class) every computation pays extra.
func (p *Proc) Compute(n sim.Time) {
	if n == 0 {
		return
	}
	n += p.Node.M.Faults.NodeSlowdown(p.Node.ID, n)
	p.Ctx.Advance(n)
	p.Bd.Add(stats.CatBusy, n)
}

// Wait charges n cycles to the current wait category (used by runtime spin
// loops so that lock/barrier/scheduling/job waits are attributed).
func (p *Proc) Wait(n sim.Time) {
	if n == 0 {
		return
	}
	p.Ctx.Advance(n)
	p.Bd.Add(p.cat, n)
}

// SetCategory sets the category charged for wait cycles and returns the
// previous one.
func (p *Proc) SetCategory(c stats.Category) stats.Category {
	old := p.cat
	p.cat = c
	return old
}

// WordTest is SpinLoad's test of the polled word. Done runs in engine
// context between polls: it may read and update simulator state but must
// never park (no Load, Store, RMW or Wait).
type WordTest interface{ Done() bool }

// RegTest is SpinRegs' test of the pair registers, under WordTest's rule.
type RegTest interface{ Done(*PairRegs) bool }

// SpinLoad is the runtime's spin on a shared word: each poll is a timed
// Load of addr, then t.Done; while that reports false the processor waits
// SpinPollCycles and polls again. Every cycle is charged to cat, and the
// previous category is restored on return. Pass a t allocated once, not
// per wait: the polls themselves allocate nothing.
func (p *Proc) SpinLoad(cat stats.Category, addr shmem.Addr, t WordTest) {
	p.spin.addr, p.spin.word = addr, t
	p.spinWait(cat)
	p.spin.word = nil
}

// SpinRegs is SpinLoad on the CMP's pair registers: each poll is a
// RegAccessCycles register access, then t.Done on the registers.
func (p *Proc) SpinRegs(cat stats.Category, t RegTest) {
	p.spin.regs = t
	p.spinWait(cat)
	p.spin.regs = nil
}

// spinWait runs the spin set up in p.spin. The goroutine issues the first
// access and parks once in spin mode; from then on the engine steps the
// spinner at each wake and switches back only when the test passes. Each
// poll schedules the same events, issues the same accesses and charges the
// same cycles as a loop of Load (or Wait) and Wait on the goroutine would.
func (p *Proc) spinWait(cat stats.Category) {
	old := p.SetCategory(cat)
	s := &p.spin
	// Start as if a zero-length poll wait just ended: Step issues the
	// first access.
	s.polling, s.phase = true, 0
	if wait, done := s.Step(); !done {
		p.Ctx.SpinPark(wait, s)
	}
	p.cat = old
}

// spinner is a Proc's spin-wait state machine, allocated with the Proc.
type spinner struct {
	p       *Proc
	addr    shmem.Addr // SpinLoad's word
	word    WordTest   // SpinLoad's test; nil while SpinRegs spins
	regs    RegTest    // SpinRegs' test
	phase   sim.Time   // length of the phase in flight
	polling bool       // the phase in flight is the poll wait, not the access
}

// Step settles the phase that just ended, then runs the spin until a
// phase takes time (returning its length) or the test passes. Zero-length
// phases run inline, as Advance(0) does not park.
func (s *spinner) Step() (sim.Time, bool) {
	p := s.p
	for {
		if s.polling {
			p.Bd.Add(p.cat, s.phase) // as Wait charges it
			s.polling = false
			if s.word != nil {
				s.phase = p.issueLoad(s.addr)
			} else {
				s.phase = p.Node.M.P.RegAccessCycles
			}
		} else {
			if s.word != nil {
				p.settle(s.phase)
				if s.word.Done() {
					return 0, true
				}
			} else {
				p.Bd.Add(p.cat, s.phase)
				if s.regs.Done(&p.Node.Regs) {
					return 0, true
				}
			}
			s.polling = true
			s.phase = p.Node.M.P.SpinPollCycles
		}
		if s.phase > 0 {
			return s.phase, false
		}
	}
}

// Category returns the current wait category.
func (p *Proc) Category() stats.Category { return p.cat }

// Load performs a timed read of addr through the memory hierarchy.
func (p *Proc) Load(addr shmem.Addr) { p.charge(p.issueLoad(addr)) }

// issueLoad runs a read of addr through the hierarchy and returns the
// latency to charge.
func (p *Proc) issueLoad(addr shmem.Addr) sim.Time {
	p.Loads++
	lat := p.access(addr, false, false)
	p.trace(trace.Load, addr, int64(lat))
	return lat
}

// trace records an access event when tracing is enabled.
func (p *Proc) trace(k trace.Kind, addr shmem.Addr, arg int64) {
	m := p.Node.M
	if m.Trace.Enabled() {
		m.Trace.Add(trace.Event{At: m.Eng.Now(), Proc: p.GID, Kind: k, Line: m.LineOf(addr), Arg: arg})
	}
}

// Store performs a timed write of addr (obtaining exclusive ownership).
// Only timing is modelled here; the caller updates the backing store.
func (p *Proc) Store(addr shmem.Addr) {
	p.Stores++
	lat := p.access(addr, true, false)
	p.trace(trace.Store, addr, int64(lat))
	p.charge(lat)
}

// RMW performs a timed atomic read-modify-write (timing equals a store:
// the line must be held modified).
func (p *Proc) RMW(addr shmem.Addr) {
	p.Stores++
	lat := p.access(addr, true, false)
	p.charge(lat)
}

// Prefetch issues a non-blocking prefetch for addr, exclusive when excl is
// set. The requester is charged only the issue cost; the fill completes in
// the background (its completion time gates later merged accesses). This is
// the operation A-stream shared stores are converted into.
func (p *Proc) Prefetch(addr shmem.Addr, excl bool) {
	lat := p.access(addr, excl, true)
	p.trace(trace.Prefetch, addr, int64(lat))
	p.Compute(1)
}

// charge waits out a memory access latency and attributes it.
func (p *Proc) charge(lat sim.Time) {
	p.Ctx.Advance(lat)
	p.settle(lat)
}

// settle attributes an access latency that has passed: the L1-hit portion
// counts as busy work, the remainder as a stall in the current category.
func (p *Proc) settle(lat sim.Time) {
	hit := p.Node.M.P.L1HitCycles
	if lat <= hit {
		p.Bd.Add(stats.CatBusy, lat)
		return
	}
	p.Bd.Add(stats.CatBusy, hit)
	p.Bd.Add(p.cat, lat-hit)
}

// ---- The access path -------------------------------------------------------

// access runs one memory operation through L1, L2, and (on L2 miss or
// upgrade) the directory protocol. It updates all coherence state
// synchronously and returns the latency to charge. For prefetches the state
// changes are identical but the caller does not stall.
func (p *Proc) access(addr shmem.Addr, write, prefetch bool) sim.Time {
	m := p.Node.M
	now := m.Eng.Now()
	line := m.LineOf(addr)

	// L1.
	if l1 := p.L1.Lookup(line); l1 != nil {
		if !write || l1.State == cache.Modified {
			p.L1.Hits++
			if l2 := p.Node.L2.Peek(line); l2 != nil {
				p.markPairUse(l2, now)
			}
			return m.P.L1HitCycles
		}
		// Write hit on a Shared L1 line: upgrade through L2.
	}
	p.L1.Misses++

	lat := m.P.L1HitCycles + m.P.L2HitCycles
	l2 := p.Node.L2.Lookup(line)
	if l2 != nil {
		p.Node.L2.Hits++
		// Merge with an in-flight fill for this line.
		if l2.FillDone > now {
			lat += sim.Time(l2.FillDone - now)
			m.Proto.Merged++
		}
		p.markPairUse(l2, now)
		if write && l2.State == cache.Shared {
			lat += p.dirUpgrade(line, now)
			l2.State = cache.Modified
			m.Proto.Upgrades++
		}
	} else {
		p.L2Misses++
		p.Node.L2.Misses++
		var fillLat sim.Time
		l2, fillLat = p.dirFetch(line, write, now)
		lat += fillLat
		// Injected memory-latency spike: the fill takes longer (and, via
		// FillDone below, delays merged accesses), nothing else changes.
		lat += m.Faults.MemSpikeLat(p.GID)
		if m.P.TrackClass && p.Pair != nil {
			l2.FilledBy = p.GID
			if write {
				l2.FillKindV = cache.FillReadEx
			} else {
				l2.FillKindV = cache.FillRead
			}
			l2.Prefetch = prefetch
		}
		l2.FillDone = now + uint64(lat)
	}

	// Maintain the node's two L1s under the (inclusive) L2.
	if write {
		other := p.Node.Procs[1-p.CPU]
		other.L1.Invalidate(line)
		l2.L1Mask = 1 << uint(p.CPU)
		l2.L1Dirty = int8(p.CPU)
	} else {
		if l2.L1Dirty >= 0 && int(l2.L1Dirty) != p.CPU {
			// Other local L1 holds it dirty: it supplies through the L2.
			l2.L1Dirty = -1
		}
		l2.L1Mask |= 1 << uint(p.CPU)
	}
	if !prefetch {
		p.fillL1(line, write)
	}
	return lat
}

// fillL1 installs a line in the L1, handling the victim.
func (p *Proc) fillL1(line uint64, write bool) {
	st := cache.Shared
	if write {
		st = cache.Modified
	}
	if l1 := p.L1.Peek(line); l1 != nil {
		l1.State = st // upgrade in place
		return
	}
	_, victim, ev := p.L1.Insert(line, st)
	if ev {
		// Write-back to L2 is free of charge (intra-CMP); clear tracking.
		if l2 := p.Node.L2.Peek(victim.Tag); l2 != nil {
			l2.L1Mask &^= 1 << uint(p.CPU)
			if l2.L1Dirty == int8(p.CPU) {
				l2.L1Dirty = -1
			}
		}
	}
}

// dirUpgrade handles a store to a line the L2 holds Shared: the home
// directory invalidates the other sharers.
func (p *Proc) dirUpgrade(line uint64, now sim.Time) sim.Time {
	m := p.Node.M
	e := m.Dir.Entry(line)
	home := m.Dir.Home(line)
	others := e.AppendOtherSharers(m.sharerScratch[:0], p.Node.ID)
	// An upgrade is a round trip to the home directory without the memory
	// data fetch.
	var lat sim.Time
	if home != p.Node.ID {
		lat = m.P.Cyc(m.P.RemoteMissNS - m.P.MemNS)
		lat += m.netDelay(p.Node, m.Nodes[home], now)
	} else {
		lat = m.P.Cyc(m.P.LocalMissNS - m.P.MemNS)
		lat += m.busDelay(p.Node, now)
	}
	lat += waitOnly(m.Nodes[home].DC, now, m.P.Cyc(m.P.NILocalDCNS))
	if len(others) > 0 {
		lat += m.P.Cyc(2*m.P.NetNS + len(others)*m.P.InvalPerShNS)
		for _, n := range others {
			m.invalidateNode(m.Nodes[n], line)
		}
		m.Proto.Invals += uint64(len(others))
	}
	e.Sharers = 0
	e.State = directory.Uncached
	e.SetOwner(p.Node.ID)
	return lat
}

// dirFetch handles an L2 miss: a full directory transaction that fills the
// node's L2 and returns (line, latency).
func (p *Proc) dirFetch(line uint64, write bool, now sim.Time) (*cache.Line, sim.Time) {
	m := p.Node.M
	nd := p.Node
	e := m.Dir.Entry(line)
	home := m.Dir.Home(line)
	local := home == nd.ID

	base := m.P.LocalMissNS
	if !local {
		base = m.P.RemoteMissNS
	}
	lat := m.P.Cyc(base)
	lat += m.meshExtra(nd.ID, home)

	// Contention: queueing on the requester bus, the NIs (remote), the home
	// directory controller (NILocalDCTime: the DC is occupied for every
	// transaction against a home line — the classic DSM hot-home
	// bottleneck), and the home memory controller. Occupancy is already
	// part of the base latency, so only the queueing wait is added.
	// Injected bus-contention burst: occupy the requester's bus so this
	// and subsequent transactions queue behind it.
	if burst := m.Faults.BusBurstOcc(nd.ID); burst > 0 {
		nd.Bus.Acquire(now, burst)
	}
	lat += waitOnly(nd.Bus, now, m.P.Cyc(m.P.BusNS))
	if !local {
		lat += waitOnly(nd.NIOut, now, m.P.Cyc(m.P.NIRemoteDCNS))
		lat += waitOnly(m.Nodes[home].NIIn, now, m.P.Cyc(m.P.NIRemoteDCNS))
	}
	lat += waitOnly(m.Nodes[home].DC, now, m.P.Cyc(m.P.NILocalDCNS))
	lat += waitOnly(m.Nodes[home].Mem, now, m.P.Cyc(m.P.MemNS))

	switch e.State {
	case directory.Uncached:
		// Fill from memory.
	case directory.SharedSt:
		if write {
			others := e.AppendOtherSharers(m.sharerScratch[:0], nd.ID)
			if len(others) > 0 {
				lat += m.P.Cyc(2*m.P.NetNS + len(others)*m.P.InvalPerShNS)
				for _, n := range others {
					m.invalidateNode(m.Nodes[n], line)
				}
				m.Proto.Invals += uint64(len(others))
			}
			e.Sharers = 0
			e.State = directory.Uncached
		}
	case directory.ModifiedSt:
		owner := e.Owner
		if owner == nd.ID {
			// Inclusion guarantees the owner's L2 held the line; an L2 miss
			// with local ownership means state corruption.
			panic(fmt.Sprintf("machine: node %d misses line %#x it owns", nd.ID, line))
		}
		lat += m.P.Cyc(m.P.DirtyForwardNS)
		lat += m.meshExtra(home, owner)/2 + m.meshExtra(owner, nd.ID)/2
		lat += waitOnly(m.Nodes[owner].NIOut, now, m.P.Cyc(m.P.NIRemoteDCNS))
		ownerNode := m.Nodes[owner]
		m.Proto.DirtyFwd++
		if !write && p.SelfInval && p.Role == stats.RoleA {
			m.Proto.SelfInvals++
		}
		if write {
			m.Proto.Invals++
		}
		if write || (p.SelfInval && p.Role == stats.RoleA) {
			// Writer takes the only copy; or the A-stream's reference sends
			// a self-invalidation hint, so the producer writes back and
			// drops its copy instead of keeping a shared one.
			m.invalidateNode(ownerNode, line)
			e.ClearOwner()
		} else {
			if l := ownerNode.L2.Peek(line); l != nil {
				l.State = cache.Shared
				if l.L1Dirty >= 0 {
					l.L1Dirty = -1
				}
				// Downgrade the owner's L1 copies to Shared as well.
				for c := 0; c < 2; c++ {
					if l1 := ownerNode.Procs[c].L1.Peek(line); l1 != nil {
						l1.State = cache.Shared
					}
				}
			}
			e.State = directory.SharedSt
			e.Owner = -1
			// Owner remains a sharer.
		}
	}

	// Record the new holder.
	if write {
		e.Sharers = 0
		e.SetOwner(nd.ID)
	} else {
		e.AddSharer(nd.ID)
	}

	// Install in L2, handling the victim.
	st := cache.Shared
	if write {
		st = cache.Modified
	}
	l2, victim, ev := nd.L2.Insert(line, st)
	if ev {
		p.evictL2(victim)
	}
	if !local {
		p.Remote++
		m.Proto.RemoteFills++
	} else {
		m.Proto.LocalFills++
	}
	if m.Trace.Enabled() {
		m.Trace.Add(trace.Event{At: now, Proc: p.GID, Kind: trace.Fill, Line: line, Arg: int64(home)})
	}
	return l2, lat
}

// evictL2 handles an L2 victim: L1 back-invalidation (inclusion), directory
// update, and writeback resource occupancy (off the critical path).
func (p *Proc) evictL2(victim cache.Line) {
	m := p.Node.M
	nd := p.Node
	for c := 0; c < 2; c++ {
		if victim.L1Mask&(1<<uint(c)) != 0 {
			nd.Procs[c].L1.Invalidate(victim.Tag)
		}
	}
	e := m.Dir.Entry(victim.Tag)
	if victim.State == cache.Modified {
		// Writeback consumes home DC and memory bandwidth but does not
		// stall the requester.
		m.Proto.Writebacks++
		home := m.Dir.Home(victim.Tag)
		if m.Trace.Enabled() {
			m.Trace.Add(trace.Event{At: m.Eng.Now(), Proc: nd.ID, Kind: trace.Writeback, Line: victim.Tag, Arg: int64(home)})
		}
		m.Nodes[home].DC.Acquire(m.Eng.Now(), m.P.Cyc(m.P.NILocalDCNS))
		m.Nodes[home].Mem.Acquire(m.Eng.Now(), m.P.Cyc(m.P.MemNS))
		if e.State == directory.ModifiedSt && e.Owner == nd.ID {
			e.ClearOwner()
		}
	} else if e.State == directory.SharedSt {
		e.RemoveSharer(nd.ID)
	}
	m.classifyDrop(&victim)
}

// invalidateNode removes a line from a node's L2 and L1s and classifies an
// unused fill as Only.
func (m *Machine) invalidateNode(nd *Node, line uint64) {
	old, was := nd.L2.Invalidate(line)
	if !was {
		return
	}
	if m.Trace.Enabled() {
		m.Trace.Add(trace.Event{At: m.Eng.Now(), Proc: nd.ID, Kind: trace.Inval, Line: line})
	}
	for c := 0; c < 2; c++ {
		if old.L1Mask&(1<<uint(c)) != 0 {
			nd.Procs[c].L1.Invalidate(line)
			m.Proto.L1BackInvals++
		}
	}
	m.classifyDrop(&old)
}

// markPairUse records a partner-stream touch of a tracked fill.
func (p *Proc) markPairUse(l2 *cache.Line, now sim.Time) {
	m := p.Node.M
	if !m.P.TrackClass || l2.FilledBy < 0 || l2.UsedByPair {
		return
	}
	filler := m.Procs[l2.FilledBy]
	if filler.Pair != p {
		return
	}
	out := stats.OutTimely
	if now < l2.FillDone {
		out = stats.OutLate
	}
	m.Class.Add(filler.Role, kindOf(l2.FillKindV), out)
	l2.UsedByPair = true
}

// classifyDrop records an Only outcome for a tracked fill that is being
// evicted/invalidated (or remains at end of run) without a partner touch.
func (m *Machine) classifyDrop(l *cache.Line) {
	if !m.P.TrackClass || l.FilledBy < 0 || l.UsedByPair {
		return
	}
	filler := m.Procs[l.FilledBy]
	if filler.Pair == nil {
		return
	}
	m.Class.Add(filler.Role, kindOf(l.FillKindV), stats.OutOnly)
}

func kindOf(k cache.FillKind) stats.ReqKind {
	if k == cache.FillReadEx {
		return stats.ReqReadEx
	}
	return stats.ReqRead
}

// busDelay charges the node bus and returns the queueing wait.
func (m *Machine) busDelay(nd *Node, now sim.Time) sim.Time {
	return waitOnly(nd.Bus, now, m.P.Cyc(m.P.BusNS))
}

// netDelay models the queueing component of a round trip to another node:
// bus plus NI waits (propagation time is inside the caller's base latency).
func (m *Machine) netDelay(from, to *Node, now sim.Time) sim.Time {
	w := waitOnly(from.Bus, now, m.P.Cyc(m.P.BusNS))
	w += waitOnly(from.NIOut, now, m.P.Cyc(m.P.NIRemoteDCNS))
	w += waitOnly(to.NIIn, now, m.P.Cyc(m.P.NIRemoteDCNS))
	return w
}

// waitOnly acquires a resource and returns only the queueing-delay portion.
func waitOnly(r *sim.Resource, now, occ sim.Time) sim.Time {
	total := r.Acquire(now, occ)
	return total - occ
}

// WallTime returns the end-to-end simulated time of the last finished
// processor (the parallel execution time).
func (m *Machine) WallTime() sim.Time {
	var t sim.Time
	for _, p := range m.Procs {
		if p.started && p.endTime > t {
			t = p.endTime
		}
	}
	return t
}

// TotalBreakdown sums all processors' breakdowns.
func (m *Machine) TotalBreakdown() stats.Breakdown {
	var b stats.Breakdown
	for _, p := range m.Procs {
		b.AddAll(&p.Bd)
	}
	return b
}
