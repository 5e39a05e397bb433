package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestUpgradeLatencyLocalVsRemote: an ownership upgrade is a directory
// round trip without the memory fetch, so it must be cheaper than a miss
// and dearer for remote homes than local ones.
func TestUpgradeLatencyLocalVsRemote(t *testing.T) {
	m := small()
	localAddr := shmem.Addr(0)                      // home node 0
	remoteAddr := shmem.Addr(uint64(m.P.LineBytes)) // home node 1
	var upLocal, upRemote sim.Time
	runOne(t, m, 0, func(p *Proc) {
		p.Load(localAddr)
		t0 := p.Ctx.Now()
		p.Store(localAddr)
		upLocal = p.Ctx.Now() - t0
		p.Load(remoteAddr)
		t0 = p.Ctx.Now()
		p.Store(remoteAddr)
		upRemote = p.Ctx.Now() - t0
	})
	missLocal := m.P.L1HitCycles + m.P.L2HitCycles + m.P.Cyc(m.P.LocalMissNS)
	if upLocal >= missLocal {
		t.Fatalf("local upgrade (%d) not cheaper than local miss (%d)", upLocal, missLocal)
	}
	if upRemote <= upLocal {
		t.Fatalf("remote upgrade (%d) not dearer than local (%d)", upRemote, upLocal)
	}
}

// TestThreeHopLocalHome: requester's home holds the directory but a third
// node owns the line dirty.
func TestThreeHopLocalHome(t *testing.T) {
	m := small()
	addr := shmem.Addr(0) // home node 0
	phase := 0
	m.Start(2, func(p *Proc) { // node 1 dirties the line
		p.Store(addr)
		phase = 1
	})
	var lat sim.Time
	m.Start(0, func(p *Proc) { // node 0 (the home) reads it back
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
	min := m.P.Cyc(m.P.LocalMissNS + m.P.DirtyForwardNS)
	if lat < min {
		t.Fatalf("local-home 3-hop read = %d, want >= %d", lat, min)
	}
	e := m.Dir.Peek(m.LineOf(addr))
	if e.State.String() != "S" {
		t.Fatalf("state after read-back: %v", e.State)
	}
}

// TestWriteToDirtyRemote: a store to a line owned dirty elsewhere takes
// the only copy and invalidates the old owner.
func TestWriteToDirtyRemote(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(2, func(p *Proc) {
		p.Store(addr)
		phase = 1
	})
	m.Start(4, func(p *Proc) { // node 2 overwrites
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Store(addr)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	e := m.Dir.Peek(m.LineOf(addr))
	if e.Owner != 2 {
		t.Fatalf("owner = %d, want 2", e.Owner)
	}
	if m.Nodes[1].L2.Peek(m.LineOf(addr)) != nil {
		t.Fatal("old owner kept its copy")
	}
}

// TestPrefetchSharedDoesNotTakeOwnership.
func TestPrefetchSharedVsExclusive(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		p.Prefetch(shmem.Addr(0), false)
		p.Prefetch(shmem.Addr(uint64(m.P.LineBytes)), true)
	})
	if e := m.Dir.Peek(0); e.State.String() != "S" {
		t.Fatalf("shared prefetch state = %v", e.State)
	}
	if e := m.Dir.Peek(1); e.State.String() != "M" || e.Owner != 0 {
		t.Fatalf("exclusive prefetch entry = %+v", e)
	}
}

// TestRefillAfterInvalidationGetsFreshClassification: a line invalidated
// and refetched by the pair gets a second, independent classification.
func TestRefillAfterInvalidation(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	addr := shmem.Addr(0)
	phase := 0
	m.Start(1, func(p *Proc) { // A fills, R uses (timely)
		p.Load(addr)
		phase = 1
		for phase != 3 {
			p.Ctx.Advance(10)
		}
		p.Load(addr) // refill after node 1's store; A fills again
		phase = 4
	})
	m.Start(0, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Compute(2000)
		p.Load(addr) // A-timely #1
		phase = 2
		for phase != 4 {
			p.Ctx.Advance(10)
		}
		p.Compute(2000)
		p.Load(addr) // A-timely #2
	})
	m.Start(2, func(p *Proc) {
		for phase != 2 {
			p.Ctx.Advance(10)
		}
		p.Store(addr) // invalidate node 0's copy
		phase = 3
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutTimely]; got != 2 {
		t.Fatalf("A-read-timely = %d, want 2 (two independent fills)", got)
	}
}

// TestPairUseDetectedOnL1Hit: the partner's touch counts even when it hits
// in its own L1 (first touch fills both L2 metadata and partner L1).
func TestPairUseViaL1Hit(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	phase := 0
	m.Start(1, func(p *Proc) {
		p.Load(0)
		phase = 1
	})
	m.Start(0, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Compute(1000)
		p.Load(0) // touch #1: marks UsedByPair, fills R's L1
		p.Load(0) // touch #2: L1 hit; must not double-count
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	total := m.Class.Counts[stats.RoleA][stats.ReqRead][stats.OutTimely]
	if total != 1 {
		t.Fatalf("A-read-timely = %d, want exactly 1", total)
	}
}

// TestRMWCountsAsStore.
func TestRMWTiming(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		p.RMW(0)
		if p.Stores != 1 {
			t.Errorf("RMW not counted as store")
		}
	})
	if e := m.Dir.Peek(0); e.State.String() != "M" {
		t.Fatal("RMW did not take ownership")
	}
}

// Property: arbitrary interleaved traffic from all processors leaves the
// directory and caches coherent, and every proc's breakdown accounts for
// every cycle it was alive.
func TestPropertyCoherenceUnderRandomTraffic(t *testing.T) {
	f := func(seed uint16) bool {
		p := DefaultParams()
		p.Nodes = 4
		p.L2Bytes = 8 * 1024 // force evictions
		p.L1Bytes = 1024
		m := New(p)
		for gid := 0; gid < 8; gid++ {
			gid := gid
			m.Start(gid, func(pr *Proc) {
				x := uint64(seed)*2654435761 + uint64(gid)
				start := pr.Ctx.Now()
				for i := 0; i < 200; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					addr := shmem.Addr((x >> 13) % (16 * 1024))
					switch x % 4 {
					case 0:
						pr.Store(addr)
					case 1:
						pr.Prefetch(addr, x%8 == 1)
					default:
						pr.Load(addr)
					}
				}
				if got := pr.Bd.Total(); got != uint64(pr.Ctx.Now()-start) {
					t.Errorf("proc %d breakdown %d != elapsed %d", gid, got, pr.Ctx.Now()-start)
				}
			})
		}
		return m.Run() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: total classified fills never exceed total fills, and the
// classification is complete after Run (every tracked fill has an outcome).
func TestPropertyClassificationComplete(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 2
	p.L2Bytes = 8 * 1024
	m := New(p)
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	for gid := 0; gid < 2; gid++ {
		gid := gid
		m.Start(gid, func(pr *Proc) {
			x := uint64(gid + 7)
			for i := 0; i < 500; i++ {
				x = x*6364136223846793005 + 1
				pr.Load(shmem.Addr((x >> 20) % (32 * 1024)))
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	classified := m.Class.KindTotal(stats.ReqRead) + m.Class.KindTotal(stats.ReqReadEx)
	if classified == 0 {
		t.Fatal("nothing classified")
	}
	if classified > m.Proto.Fills() {
		t.Fatalf("classified %d > fills %d", classified, m.Proto.Fills())
	}
}
