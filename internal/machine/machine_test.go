package machine

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// small returns a 4-node machine with default latencies.
func small() *Machine {
	p := DefaultParams()
	p.Nodes = 4
	return New(p)
}

func TestParamsTable1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.Table1()
	for _, want := range []string{"1.2 GHz", "16 KB", "1 MB", "BusTime=30", "local 170 ns, remote 290 ns"} {
		if !contains(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCycConversion(t *testing.T) {
	p := DefaultParams()
	if p.Cyc(170) != 204 {
		t.Fatalf("170ns = %d cycles, want 204", p.Cyc(170))
	}
	if p.Cyc(290) != 348 {
		t.Fatalf("290ns = %d cycles, want 348", p.Cyc(290))
	}
	if p.Cyc(0) != 0 {
		t.Fatal("0ns != 0 cycles")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	for _, mod := range []func(*Params){
		func(p *Params) { p.ClockGHz = 0 },
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.Nodes = 100 },
		func(p *Params) { p.LineBytes = 48 },
		func(p *Params) { p.RemoteMissNS = p.LocalMissNS - 1 },
	} {
		p := DefaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Fatalf("Validate accepted bad config %+v", p)
		}
	}
}

// runOne executes body on proc gid and returns the machine.
func runOne(t *testing.T, m *Machine, gid int, body func(*Proc)) {
	t.Helper()
	m.Start(gid, body)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestColdLocalMissLatency(t *testing.T) {
	m := small()
	// Choose an address homed at node 0 (line 0 % 4 == 0).
	addr := shmem.Addr(0)
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		t0 := p.Ctx.Now()
		p.Load(addr)
		lat = p.Ctx.Now() - t0
	})
	// L1 hit + L2 hit + 170ns local miss = 1 + 10 + 204 = 215.
	want := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.LocalMissNS)
	if lat != want {
		t.Fatalf("cold local miss = %d cycles, want %d", lat, want)
	}
}

func TestColdRemoteMissLatency(t *testing.T) {
	m := small()
	// Line 1 is homed at node 1; access from node 0.
	addr := shmem.Addr(uint64(m.P.LineBytes))
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		t0 := p.Ctx.Now()
		p.Load(addr)
		lat = p.Ctx.Now() - t0
	})
	want := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS)
	if lat != want {
		t.Fatalf("cold remote miss = %d cycles, want %d", lat, want)
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	m := small()
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		p.Load(0)
		t0 := p.Ctx.Now()
		p.Load(0)
		lat = p.Ctx.Now() - t0
	})
	if lat != m.P.L1HitCycles {
		t.Fatalf("L1 hit = %d cycles, want %d", lat, m.P.L1HitCycles)
	}
}

func TestL2HitFromSiblingProc(t *testing.T) {
	// CPU 1 loads a line CPU 0 already brought into the shared L2: it pays
	// L1+L2 hit latency only, no directory transaction.
	m := small()
	done := false
	m.Start(0, func(p *Proc) {
		p.Load(0)
		done = true
	})
	var lat sim.Time
	m.Start(1, func(p *Proc) {
		for !done {
			p.Ctx.Advance(10)
		}
		t0 := p.Ctx.Now()
		p.Load(0)
		lat = p.Ctx.Now() - t0
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if lat != m.P.L1HitCycles+m.P.L2HitCycles {
		t.Fatalf("sibling L2 hit = %d, want %d", lat, m.P.L1HitCycles+m.P.L2HitCycles)
	}
}

func TestStoreEstablishesOwnership(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	runOne(t, m, 0, func(p *Proc) {
		p.Store(addr)
	})
	line := m.LineOf(addr)
	e := m.Dir.Peek(line)
	if e == nil || e.State.String() != "M" || e.Owner != 0 {
		t.Fatalf("directory after store: %+v", e)
	}
	l2 := m.Nodes[0].L2.Peek(line)
	if l2 == nil || l2.State.String() != "M" {
		t.Fatalf("L2 after store: %+v", l2)
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Load(addr)
		phase = 1
		for phase != 2 {
			p.Ctx.Advance(10)
		}
		// Reader's copy must be gone after node 1's store.
		if m.Nodes[0].L2.Peek(m.LineOf(addr)) != nil {
			t.Error("sharer L2 copy not invalidated by remote store")
		}
		if p.L1.Peek(m.LineOf(addr)) != nil {
			t.Error("sharer L1 copy not invalidated by remote store")
		}
	})
	m.Start(2, func(p *Proc) { // proc 2 = node 1 cpu 0
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Store(addr)
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	e := m.Dir.Peek(m.LineOf(addr))
	if e.Owner != 1 {
		t.Fatalf("owner = %d, want 1", e.Owner)
	}
}

func TestDirtyRemoteReadDowngradesOwner(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Store(addr)
		phase = 1
	})
	var lat sim.Time
	m.Start(2, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		t0 := p.Ctx.Now()
		p.Load(addr)
		lat = p.Ctx.Now() - t0
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	line := m.LineOf(addr)
	e := m.Dir.Peek(line)
	if e.State.String() != "S" || !e.HasSharer(0) || !e.HasSharer(1) {
		t.Fatalf("directory after 3-hop read: %+v", e)
	}
	if l := m.Nodes[0].L2.Peek(line); l == nil || l.State.String() != "S" {
		t.Fatal("owner not downgraded to shared")
	}
	// 3-hop: remote miss + forwarding extra.
	min := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS+m.P.DirtyForwardNS)
	if lat < min {
		t.Fatalf("3-hop read latency %d < minimum %d", lat, min)
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	runOne(t, m, 0, func(p *Proc) {
		p.Load(addr)
		p.Store(addr) // upgrade in place
	})
	e := m.Dir.Peek(m.LineOf(addr))
	if e.State.String() != "M" || e.Owner != 0 {
		t.Fatalf("after upgrade: %+v", e)
	}
}

func TestIntraCMPWriteInvalidatesSiblingL1(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Load(addr)
		phase = 1
		for phase != 2 {
			p.Ctx.Advance(10)
		}
		if p.L1.Peek(m.LineOf(addr)) != nil {
			t.Error("sibling L1 copy survived local write")
		}
	})
	m.Start(1, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Store(addr)
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownAccountsAllCycles(t *testing.T) {
	m := small()
	var total sim.Time
	var p0 *Proc
	runOne(t, m, 0, func(p *Proc) {
		p0 = p
		start := p.Ctx.Now()
		p.Compute(100)
		for i := 0; i < 50; i++ {
			p.Load(shmem.Addr(i * 64))
			p.Store(shmem.Addr(i * 64))
		}
		old := p.SetCategory(stats.CatBarrier)
		p.Wait(77)
		p.SetCategory(old)
		total = p.Ctx.Now() - start
	})
	if got := p0.Bd.Total(); got != uint64(total) {
		t.Fatalf("breakdown total %d != elapsed %d", got, total)
	}
	if p0.Bd[stats.CatBarrier] != 77 {
		t.Fatalf("barrier cycles = %d, want 77", p0.Bd[stats.CatBarrier])
	}
	if p0.Bd[stats.CatBusy] < 100 {
		t.Fatalf("busy cycles = %d, want >= 100", p0.Bd[stats.CatBusy])
	}
}

// nthPoll is a spin test that passes on its nth poll.
type nthPoll struct{ polls, n int }

func (c *nthPoll) Done() bool { c.polls++; return c.polls == c.n }

// nthRegPoll is nthPoll on the pair registers; every poll also posts a
// decision, so the test's writes can be counted.
type nthRegPoll struct{ nthPoll }

func (c *nthRegPoll) Done(r *PairRegs) bool { r.SysPosted++; return c.nthPoll.Done() }

// TestSpinPrimitivesPollAndCharge pins what one spin costs: SpinLoad
// polls load-then-test and SpinRegs register-access-then-test, each
// waiting SpinPollCycles between polls. Every stall goes to the spin's
// category, and the previous category is back afterwards.
func TestSpinPrimitivesPollAndCharge(t *testing.T) {
	m := small()
	var p0 *Proc
	var loadSpin, regSpin sim.Time
	runOne(t, m, 0, func(p *Proc) {
		p0 = p
		p.Load(0) // the polls below hit in L1
		start := p.Ctx.Now()
		p.SpinLoad(stats.CatLock, 0, &nthPoll{n: 3})
		loadSpin = p.Ctx.Now() - start
		start = p.Ctx.Now()
		p.SpinRegs(stats.CatSched, &nthRegPoll{nthPoll{n: 3}})
		regSpin = p.Ctx.Now() - start
		if c := p.Category(); c != stats.CatMem {
			t.Errorf("category after the spins = %v, want %v", c, stats.CatMem)
		}
	})
	if want := 3*m.P.L1HitCycles + 2*m.P.SpinPollCycles; loadSpin != want {
		t.Errorf("SpinLoad of 3 polls took %d cycles, want %d", loadSpin, want)
	}
	if want := 3*m.P.RegAccessCycles + 2*m.P.SpinPollCycles; regSpin != want {
		t.Errorf("SpinRegs of 3 polls took %d cycles, want %d", regSpin, want)
	}
	if got := p0.Bd[stats.CatLock]; got != uint64(2*m.P.SpinPollCycles) {
		t.Errorf("lock cycles = %d, want the 2 poll waits (%d)", got, 2*m.P.SpinPollCycles)
	}
	if got := p0.Bd[stats.CatSched]; got != uint64(regSpin) {
		t.Errorf("sched cycles = %d, want the whole register spin (%d)", got, regSpin)
	}
	if got := p0.Node.Regs.SysPosted; got != 3 {
		t.Errorf("SysPosted = %d, want the 3 updates made by done", got)
	}
}

// spinEpisode runs one 4-poll spin of each kind on a fresh machine built
// from p, and reports each spin's cycles and the engine events and
// goroutine switches it cost.
func spinEpisode(t *testing.T, p Params) (cycles, events, switches [2]uint64) {
	t.Helper()
	m := New(p)
	var bd stats.Breakdown
	var end sim.Time
	runOne(t, m, 0, func(pr *Proc) {
		pr.Load(0) // the polls below hit in L1
		for k := 0; k < 2; k++ {
			start, c0 := pr.Ctx.Now(), m.Eng.Counters()
			if k == 0 {
				pr.SpinLoad(stats.CatLock, 0, &nthPoll{n: 4})
			} else {
				pr.SpinRegs(stats.CatLock, &nthRegPoll{nthPoll{n: 4}})
			}
			c1 := m.Eng.Counters()
			cycles[k] = pr.Ctx.Now() - start
			events[k], switches[k] = c1.Events-c0.Events, c1.Switches-c0.Switches
		}
		bd, end = pr.Bd, pr.Ctx.Now()
	})
	if bd.Total() != end {
		t.Errorf("breakdown holds %d cycles, want the %d that passed", bd.Total(), end)
	}
	return cycles, events, switches
}

// A spin parks its context once: however many polls it makes, the
// goroutine is switched to only when the test passes, and each phase
// that takes time is one engine event.
func TestSpinEpisodeSwitchesOnce(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 2
	cycles, events, switches := spinEpisode(t, p)
	if want := 4*p.L1HitCycles + 3*p.SpinPollCycles; cycles[0] != want {
		t.Errorf("SpinLoad of 4 polls took %d cycles, want %d", cycles[0], want)
	}
	if want := 4*p.RegAccessCycles + 3*p.SpinPollCycles; cycles[1] != want {
		t.Errorf("SpinRegs of 4 polls took %d cycles, want %d", cycles[1], want)
	}
	for k, name := range []string{"SpinLoad", "SpinRegs"} {
		if events[k] != 7 || switches[k] != 1 {
			t.Errorf("%s of 4 polls: %d events and %d switches, want 7 and 1", name, events[k], switches[k])
		}
	}
}

// Zero-length spin phases run inline, as Advance(0) does: a poll wait or
// register access of 0 cycles schedules no event and costs no cycles, and
// a spin whose phases all take 0 cycles never parks.
func TestSpinZeroLengthPhases(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 2
	p.SpinPollCycles = 0
	cycles, events, switches := spinEpisode(t, p)
	if want := 4 * p.L1HitCycles; cycles[0] != want || events[0] != 4 || switches[0] != 1 {
		t.Errorf("SpinLoad with 0-cycle polls: %d cycles, %d events, %d switches; want %d, 4, 1",
			cycles[0], events[0], switches[0], want)
	}
	if want := 4 * p.RegAccessCycles; cycles[1] != want || events[1] != 4 || switches[1] != 1 {
		t.Errorf("SpinRegs with 0-cycle polls: %d cycles, %d events, %d switches; want %d, 4, 1",
			cycles[1], events[1], switches[1], want)
	}
	p.RegAccessCycles = 0
	if _, events, switches := spinEpisode(t, p); events[1] != 0 || switches[1] != 0 {
		t.Errorf("SpinRegs with 0-cycle phases: %d events, %d switches; want none", events[1], switches[1])
	}
	p.SpinPollCycles = DefaultParams().SpinPollCycles
	cycles, events, _ = spinEpisode(t, p)
	if want := 3 * p.SpinPollCycles; cycles[1] != want || events[1] != 3 {
		t.Errorf("SpinRegs with 0-cycle accesses: %d cycles, %d events; want %d, 3", cycles[1], events[1], want)
	}
}

func TestMemoryControllerContention(t *testing.T) {
	// Two procs on different nodes hammer lines homed at node 0
	// simultaneously; queueing at node 0's memory controller must make the
	// combined latency exceed two isolated accesses.
	m := small()
	var lat [2]sim.Time
	for i, gid := range []int{2, 4} { // nodes 1 and 2
		i, gid := i, gid
		m.Start(gid, func(p *Proc) {
			t0 := p.Ctx.Now()
			for k := 0; k < 8; k++ {
				p.Load(shmem.Addr(uint64(k*4*m.P.LineBytes) + uint64(i*1024*m.P.LineBytes)))
			}
			lat[i] = p.Ctx.Now() - t0
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	solo := 8 * (m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS))
	if lat[0] <= solo && lat[1] <= solo {
		t.Fatalf("no contention visible: %v vs solo %d", lat, solo)
	}
}

func TestPrefetchNonBlocking(t *testing.T) {
	m := small()
	var issue sim.Time
	runOne(t, m, 0, func(p *Proc) {
		t0 := p.Ctx.Now()
		p.Prefetch(shmem.Addr(64), true)
		issue = p.Ctx.Now() - t0
	})
	if issue > 5 {
		t.Fatalf("prefetch issue cost %d cycles, want tiny", issue)
	}
	// State should be established.
	e := m.Dir.Peek(m.LineOf(64))
	if e == nil || e.Owner != 0 {
		t.Fatalf("prefetch-exclusive did not take ownership: %+v", e)
	}
}

func TestMergedAccessWaitsForInflightFill(t *testing.T) {
	m := small()
	addr := shmem.Addr(uint64(m.P.LineBytes)) // remote line (home node 1)
	var lat sim.Time
	runOne(t, m, 0, func(p *Proc) {
		p.Prefetch(addr, false)
		t0 := p.Ctx.Now()
		p.Load(addr) // must merge: waits for the in-flight fill
		lat = p.Ctx.Now() - t0
	})
	if lat < m.P.Cyc(m.P.RemoteMissNS)/2 {
		t.Fatalf("merged access latency %d too small; merge not modelled", lat)
	}
	full := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.RemoteMissNS)
	if lat > full+10 {
		t.Fatalf("merged access latency %d exceeds full miss %d", lat, full)
	}
}

func TestClassificationTimely(t *testing.T) {
	m := small()
	// Pair procs 0 (R) and 1 (A) on node 0.
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(uint64(m.P.LineBytes))
	phase := 0
	m.Start(1, func(p *Proc) {
		p.Load(addr) // A fetches
		phase = 1
	})
	m.Start(0, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Compute(1000) // well past fill completion
		p.Load(addr)    // R touches: A-Timely
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutTimely]; got != 1 {
		t.Fatalf("A-read-timely = %d, want 1 (class=%+v)", got, m.Class)
	}
}

func TestClassificationLate(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(uint64(m.P.LineBytes))
	m.Start(1, func(p *Proc) {
		p.Prefetch(addr, false) // in-flight fill
	})
	m.Start(0, func(p *Proc) {
		p.Compute(5)
		p.Load(addr) // arrives while fill in flight: A-Late
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutLate]; got != 1 {
		t.Fatalf("A-read-late = %d, want 1 (class=%+v)", got, m.Class)
	}
}

func TestClassificationOnlyAtEndOfRun(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	m.Start(1, func(p *Proc) {
		p.Load(shmem.Addr(64)) // never touched by R
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutOnly]; got != 1 {
		t.Fatalf("A-read-only = %d, want 1", got)
	}
}

func TestClassificationOnlyOnInvalidation(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(0)
	phase := 0
	m.Start(1, func(p *Proc) {
		p.Load(addr)
		phase = 1
	})
	m.Start(2, func(p *Proc) { // node 1 writes, invalidating A's fill
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Store(addr)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutOnly]; got != 1 {
		t.Fatalf("A-read-only after invalidation = %d, want 1", got)
	}
}

func TestSelfInvalidationDropsOwnerCopy(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	a.SelfInval = true
	addr := shmem.Addr(0)
	phase := 0
	m.Start(2, func(p *Proc) { // producer on node 1
		p.Store(addr)
		phase = 1
	})
	m.Start(1, func(p *Proc) { // A-stream consumer read
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Load(addr)
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[1].L2.Peek(m.LineOf(addr)) != nil {
		t.Fatal("producer kept its copy despite self-invalidation hint")
	}
	e := m.Dir.Peek(m.LineOf(addr))
	if e.State.String() != "S" || !e.HasSharer(0) || e.HasSharer(1) {
		t.Fatalf("directory after self-invalidation: %+v", e)
	}
}

func TestPairRegsFreeOfCoherenceTraffic(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		loads := p.Loads
		p.Node.Regs.Allowance = 3
		if p.Node.Regs.Allowance != 3 {
			t.Error("register write lost")
		}
		if p.Loads != loads {
			t.Error("register access generated memory traffic")
		}
	})
}

func TestCoherenceCheckAfterRandomTraffic(t *testing.T) {
	m := small()
	for gid := 0; gid < 8; gid++ {
		gid := gid
		m.Start(gid, func(p *Proc) {
			x := uint64(gid*2654435761 + 12345)
			for i := 0; i < 300; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				addr := shmem.Addr((x >> 16) % (1 << 14))
				if x%3 == 0 {
					p.Store(addr)
				} else {
					p.Load(addr)
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("coherence check failed after random traffic: %v", err)
	}
}

func TestWallTime(t *testing.T) {
	m := small()
	m.Start(0, func(p *Proc) { p.Compute(100) })
	m.Start(2, func(p *Proc) { p.Compute(500) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.WallTime() != 500 {
		t.Fatalf("wall time = %d, want 500", m.WallTime())
	}
}
