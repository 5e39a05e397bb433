package machine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/shmem"
	"repro/internal/stats"
)

func TestProtoCountsFills(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		p.Load(0)                             // local (home 0)
		p.Load(shmem.Addr(m.P.LineBytes))     // remote (home 1)
		p.Load(shmem.Addr(2 * m.P.LineBytes)) // remote (home 2)
	})
	if m.Proto.LocalFills != 1 || m.Proto.RemoteFills != 2 {
		t.Fatalf("fills local=%d remote=%d, want 1/2", m.Proto.LocalFills, m.Proto.RemoteFills)
	}
	if m.Proto.Fills() != 3 {
		t.Fatalf("total fills = %d", m.Proto.Fills())
	}
}

func TestProtoCountsUpgradeAndInval(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Load(addr)
		phase = 1
		for phase != 2 {
			p.Ctx.Advance(10)
		}
	})
	m.Start(2, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Load(addr)  // both nodes share
		p.Store(addr) // upgrade: invalidates node 0
		phase = 2
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Proto.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", m.Proto.Upgrades)
	}
	if m.Proto.Invals != 1 {
		t.Fatalf("invals = %d, want 1", m.Proto.Invals)
	}
}

func TestProtoCountsDirtyForward(t *testing.T) {
	m := small()
	addr := shmem.Addr(0)
	phase := 0
	m.Start(0, func(p *Proc) {
		p.Store(addr)
		phase = 1
	})
	m.Start(2, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Load(addr) // 3-hop from dirty owner
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Proto.DirtyFwd != 1 {
		t.Fatalf("dirty forwards = %d, want 1", m.Proto.DirtyFwd)
	}
}

func TestProtoCountsMergedAndWriteback(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		addr := shmem.Addr(m.P.LineBytes)
		p.Prefetch(addr, false)
		p.Load(addr) // merges into the in-flight fill
		// Force writebacks: write more lines mapping to one set than ways.
		setStride := uint64(m.P.LineBytes) * uint64(m.Nodes[0].L2.Sets())
		for w := 0; w <= m.P.L2Assoc; w++ {
			p.Store(shmem.Addr(uint64(w)*setStride + 4096))
		}
	})
	if m.Proto.Merged == 0 {
		t.Fatal("no merged access counted")
	}
	if m.Proto.Writebacks == 0 {
		t.Fatal("no writeback counted despite set overflow")
	}
}

func TestProtoString(t *testing.T) {
	var s ProtoStats
	s.LocalFills = 3
	s.Upgrades = 2
	out := s.String()
	if !strings.Contains(out, "local=3") || !strings.Contains(out, "upgrades=2") {
		t.Fatalf("String() = %q", out)
	}
}

func TestNodeReports(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Load(shmem.Addr(i * m.P.LineBytes))
		}
	})
	reps := m.NodeReports()
	if len(reps) != 4 {
		t.Fatalf("reports = %d", len(reps))
	}
	var uses uint64
	for _, r := range reps {
		uses += r.DCUses
	}
	if uses == 0 {
		t.Fatal("no DC usage recorded")
	}
	if reps[0].L2Misses == 0 {
		t.Fatal("requester node shows no L2 misses")
	}
	rep := m.UtilizationReport()
	if !strings.Contains(rep, "dc-util") {
		t.Fatalf("utilization report = %q", rep)
	}
}

func TestUtilizationReportEmptyRun(t *testing.T) {
	m := small()
	if got := m.UtilizationReport(); !strings.Contains(got, "no simulated time") {
		t.Fatalf("empty report = %q", got)
	}
}

func TestSelfInvalCounter(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	a.SelfInval = true
	phase := 0
	m.Start(2, func(p *Proc) {
		p.Store(0)
		phase = 1
	})
	m.Start(1, func(p *Proc) {
		for phase != 1 {
			p.Ctx.Advance(10)
		}
		p.Load(0)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Proto.SelfInvals != 1 {
		t.Fatalf("self-invalidations = %d, want 1", m.Proto.SelfInvals)
	}
}

func TestTracingCapturesEvents(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 4
	p.TraceCap = 64
	m := New(p)
	runOne(t, m, 0, func(pr *Proc) {
		pr.Load(0)
		pr.Store(0)
		pr.Prefetch(shmem.Addr(p.LineBytes), true)
	})
	if !m.Trace.Enabled() {
		t.Fatal("trace not enabled")
	}
	evs := m.Trace.Events()
	if len(evs) < 3 {
		t.Fatalf("traced %d events, want >= 3", len(evs))
	}
	var kinds [8]int
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 || kinds[3] == 0 {
		t.Fatalf("missing kinds in trace: %v", kinds)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(pr *Proc) { pr.Load(0) })
	if m.Trace.Enabled() || m.Trace.Total() != 0 {
		t.Fatal("tracing active without TraceCap")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := small()
	runOne(t, m, 0, func(pr *Proc) {
		pr.Load(0)
		pr.Store(shmem.Addr(m.P.LineBytes))
		pr.Compute(10)
	})
	s := m.TakeSnapshot(true)
	if s.WallCycle != m.WallTime() || s.Nodes != 4 {
		t.Fatalf("snapshot header wrong: %+v", s)
	}
	if s.Breakdown["busy"] == 0 || s.Breakdown["mem"] == 0 {
		t.Fatalf("snapshot breakdown empty: %v", s.Breakdown)
	}
	if s.Protocol.Fills() == 0 {
		t.Fatal("snapshot protocol empty")
	}
	if len(s.PerNode) != 4 {
		t.Fatalf("per-node reports = %d", len(s.PerNode))
	}
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.WallCycle != s.WallCycle || back.Breakdown["busy"] != s.Breakdown["busy"] {
		t.Fatal("round trip lost data")
	}
}

func TestSnapshotIncludesClassification(t *testing.T) {
	m := small()
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	m.Start(1, func(pr *Proc) { pr.Load(0) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.TakeSnapshot(false)
	if len(s.Class) == 0 {
		t.Fatal("snapshot missing classification for a slipstream pair")
	}
	if s.PerNode != nil {
		t.Fatal("per-node reports included without request")
	}
}
