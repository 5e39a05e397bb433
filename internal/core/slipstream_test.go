package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
)

func newM() *machine.Machine {
	p := machine.DefaultParams()
	p.Nodes = 2
	return machine.New(p)
}

func TestParseEnv(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Config
		ok   bool
	}{
		{"", Config{Type: GlobalSync}, true},
		{"GLOBAL_SYNC", Config{Type: GlobalSync}, true},
		{"LOCAL_SYNC,1", Config{Type: LocalSync, Tokens: 1}, true},
		{"global_sync,3", Config{Type: GlobalSync, Tokens: 3}, true},
		{" LOCAL_SYNC , 2 ", Config{Type: LocalSync, Tokens: 2}, true},
		{"NONE", Config{Type: NoneSync}, true},
		{"BOGUS", Config{}, false},
		{"GLOBAL_SYNC,x", Config{}, false},
		{"GLOBAL_SYNC,-1", Config{}, false},
		{"GLOBAL_SYNC,1,2", Config{}, false},
	} {
		got, err := ParseEnv(tc.in)
		if tc.ok && err != nil {
			t.Errorf("ParseEnv(%q): %v", tc.in, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseEnv(%q): no error", tc.in)
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseEnv(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestStrings(t *testing.T) {
	if ModeSlipstream.String() != "slipstream" || ModeSingle.String() != "single" || ModeDouble.String() != "double" {
		t.Fatal("mode strings")
	}
	if G0.String() != "GLOBAL_SYNC,0" || L1.String() != "LOCAL_SYNC,1" {
		t.Fatal("config strings")
	}
	if RuntimeSync.String() != "RUNTIME_SYNC" || NoneSync.String() != "NONE" {
		t.Fatal("sync strings")
	}
}

func TestEffectiveResolution(t *testing.T) {
	c, err := NewController(newM(), true, "LOCAL_SYNC,2")
	if err != nil {
		t.Fatal(err)
	}
	// No directive: global setting (initialized from env).
	if got := c.Effective(nil); got != (Config{LocalSync, 2}) {
		t.Fatalf("default effective = %v", got)
	}
	// Region directive takes precedence.
	if got := c.Effective(&Directive{Type: GlobalSync, Tokens: 0, HasTokens: true}); got != (Config{GlobalSync, 0}) {
		t.Fatalf("region directive = %v", got)
	}
	// Region directive without token count inherits global tokens.
	if got := c.Effective(&Directive{Type: GlobalSync}); got != (Config{GlobalSync, 2}) {
		t.Fatalf("region directive w/o tokens = %v", got)
	}
	// RUNTIME_SYNC defers to env.
	if got := c.Effective(&Directive{Type: RuntimeSync}); got != (Config{LocalSync, 2}) {
		t.Fatalf("runtime sync = %v", got)
	}
	// Serial-part directive changes the global setting.
	c.SetGlobal(Directive{Type: GlobalSync, Tokens: 1, HasTokens: true})
	if got := c.Effective(nil); got != (Config{GlobalSync, 1}) {
		t.Fatalf("after SetGlobal = %v", got)
	}
	// ...but a region directive still wins without overriding it.
	if got := c.Effective(&Directive{Type: LocalSync, Tokens: 3, HasTokens: true}); got != (Config{LocalSync, 3}) {
		t.Fatalf("region over global = %v", got)
	}
	if got := c.Effective(nil); got != (Config{GlobalSync, 1}) {
		t.Fatalf("global overridden by region directive: %v", got)
	}
}

func TestNoneDisables(t *testing.T) {
	c, err := NewController(newM(), true, "NONE")
	if err != nil {
		t.Fatal(err)
	}
	if c.Enabled {
		t.Fatal("OMP_SLIPSTREAM=NONE did not disable slipstream")
	}
	if got := c.Effective(nil); got.Type != NoneSync {
		t.Fatalf("effective = %v", got)
	}
	if c.Active(got0(c)) {
		t.Fatal("Active true when disabled")
	}
}

func got0(c *Controller) Config { return c.Effective(nil) }

func TestDisabledController(t *testing.T) {
	c, _ := NewController(newM(), false, "")
	if got := c.Effective(&Directive{Type: LocalSync}); got.Type != NoneSync {
		t.Fatalf("disabled controller resolved %v", got)
	}
}

// rBarrier is the R-stream side of omp.Thread.Barrier in a one-thread
// team: the barrier completes as soon as R enters it, which is where the
// runtime inserts a global-sync token.
func rBarrier(c *Controller, p *machine.Proc, cfg Config) {
	c.RBarrierEnter(p, cfg)
	if cfg.Type == GlobalSync {
		c.InsertTokenAt(p)
	}
}

// runPair executes rBody and aBody on node 0's two processors.
func runPair(t *testing.T, m *machine.Machine, rBody, aBody func(*machine.Proc)) {
	t.Helper()
	m.Start(0, rBody)
	m.Start(1, aBody)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestG0TokenProtocol(t *testing.T) {
	// Zero-token global: A may pass barrier k only after R exited barrier k.
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	cfg := G0
	var rExit, aPass [3]uint64
	runPair(t, m,
		func(p *machine.Proc) {
			c.RPickupRegion(p, 1, cfg)
			for i := 0; i < 3; i++ {
				p.Compute(1000)
				rBarrier(c, p, cfg)
				rExit[i] = p.Ctx.Now()
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < 3; i++ {
				p.Compute(10) // A runs ahead of R's computation
				c.ABarrier(p)
				aPass[i] = p.Ctx.Now()
			}
		})
	for i := 0; i < 3; i++ {
		if aPass[i] < rExit[i] {
			t.Fatalf("barrier %d: A passed at %d before R exited at %d (G0 violated)", i, aPass[i], rExit[i])
		}
	}
}

func TestL1TokenProtocol(t *testing.T) {
	// One-token local: A may be one session ahead: it passes barrier k once
	// R has entered barrier k-1 (the initial token covers the first skip).
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	cfg := L1
	var rEnter [3]uint64
	var aPass [3]uint64
	runPair(t, m,
		func(p *machine.Proc) {
			c.RPickupRegion(p, 1, cfg)
			for i := 0; i < 3; i++ {
				p.Compute(1000)
				rEnter[i] = p.Ctx.Now()
				rBarrier(c, p, cfg)
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < 3; i++ {
				p.Compute(10)
				c.ABarrier(p)
				aPass[i] = p.Ctx.Now()
			}
		})
	// First barrier skip is free (initial token): A passes long before R.
	if aPass[0] >= rEnter[0] {
		t.Fatalf("L1: A did not use its initial token (aPass=%d, rEnter=%d)", aPass[0], rEnter[0])
	}
	// Second skip requires R to have entered barrier 0.
	if aPass[1] < rEnter[0] {
		t.Fatalf("L1: A passed barrier 1 at %d before R entered barrier 0 at %d", aPass[1], rEnter[0])
	}
}

func TestTokenWaitChargedAsBarrier(t *testing.T) {
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	cfg := G0
	var aProc *machine.Proc
	runPair(t, m,
		func(p *machine.Proc) {
			c.RPickupRegion(p, 1, cfg)
			p.Compute(5000)
			rBarrier(c, p, cfg)
		},
		func(p *machine.Proc) {
			aProc = p
			c.ABarrier(p)
		})
	if aProc.Bd[stats.CatBarrier] < 4000 {
		t.Fatalf("A-stream barrier wait = %d cycles, want ~5000", aProc.Bd[stats.CatBarrier])
	}
}

func TestDivergenceDetectionAndRecovery(t *testing.T) {
	// A never consumes tokens; after allowance+1 barriers R must request
	// recovery, and A must absorb it and resynchronize.
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	cfg := G0
	stuck := true
	var recovered bool
	runPair(t, m,
		func(p *machine.Proc) {
			c.RPickupRegion(p, 1, cfg)
			for i := 0; i < 4; i++ {
				p.Compute(100)
				rBarrier(c, p, cfg)
			}
			stuck = false
		},
		func(p *machine.Proc) {
			for stuck {
				p.Ctx.Advance(20)
			}
			recovered = c.ABarrier(p)
		})
	if c.Recoveries() == 0 {
		t.Fatal("R never requested recovery for its stalled A-stream")
	}
	if !recovered {
		t.Fatal("A-stream did not observe the recovery request")
	}
	if m.Nodes[0].Regs.ABarriers != m.Nodes[0].Regs.RBarriers {
		t.Fatal("recovery did not resynchronize the streams")
	}
	if m.Nodes[0].Regs.Recover != 0 {
		t.Fatal("recovery flag not cleared")
	}
}

func TestNoFalseDivergenceWhenAKeepsUp(t *testing.T) {
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	cfg := G0
	runPair(t, m,
		func(p *machine.Proc) {
			c.RPickupRegion(p, 1, cfg)
			for i := 0; i < 10; i++ {
				p.Compute(500)
				rBarrier(c, p, cfg)
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < 10; i++ {
				p.Compute(10)
				if c.ABarrier(p) {
					t.Error("spurious recovery")
				}
			}
		})
	if c.Recoveries() != 0 {
		t.Fatalf("recoveries = %d for a healthy pair", c.Recoveries())
	}
}

func TestDecisionHandoff(t *testing.T) {
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	chunks := [][2]int64{{0, 10}, {10, 20}, {20, 20}}
	var got [][2]int64
	runPair(t, m,
		func(p *machine.Proc) {
			for _, ch := range chunks {
				p.Compute(200)
				c.RPublishDecision(p, ch[0], ch[1])
			}
		},
		func(p *machine.Proc) {
			for range chunks {
				lo, hi, ok := c.ATakeDecision(p)
				if !ok {
					t.Error("handoff interrupted")
					return
				}
				got = append(got, [2]int64{lo, hi})
			}
		})
	if len(got) != len(chunks) {
		t.Fatalf("received %d chunks, want %d", len(got), len(chunks))
	}
	for i := range chunks {
		if got[i] != chunks[i] {
			t.Fatalf("chunk %d = %v, want %v", i, got[i], chunks[i])
		}
	}
}

func TestDecisionHandoffNeverOverwrites(t *testing.T) {
	// R produces decisions much faster than A consumes them; the single
	// register must make R wait so nothing is lost.
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	const n = 20
	var got []int64
	runPair(t, m,
		func(p *machine.Proc) {
			for i := int64(0); i < n; i++ {
				c.RPublishDecision(p, i, i+1)
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < n; i++ {
				p.Compute(700) // slow consumer
				lo, _, ok := c.ATakeDecision(p)
				if !ok {
					t.Error("handoff interrupted")
					return
				}
				got = append(got, lo)
			}
		})
	for i := int64(0); i < n; i++ {
		if got[i] != i {
			t.Fatalf("decision %d = %d (lost/overwritten)", i, got[i])
		}
	}
}

func TestAStoreAction(t *testing.T) {
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	runPair(t, m,
		func(p *machine.Proc) { p.Compute(1) },
		func(p *machine.Proc) {
			// Same session (both counters zero), idle bus: convert.
			if a := c.AStoreAction(p); a != StorePrefetch {
				t.Errorf("same-session idle-bus action = %v, want prefetch", a)
			}
			// A ahead of R: skip.
			p.Node.Regs.ABarriers = 1
			if a := c.AStoreAction(p); a != StoreSkip {
				t.Errorf("ahead-session action = %v, want skip", a)
			}
		})
}

func TestSameSession(t *testing.T) {
	// Stores convert to prefetches only while the pair registers hold
	// equal barrier counts (the bus of an otherwise idle node is free).
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	runPair(t, m,
		func(p *machine.Proc) { p.Compute(1) },
		func(p *machine.Proc) {
			r := &p.Node.Regs
			if a := c.AStoreAction(p); r.ABarriers != r.RBarriers || a != StorePrefetch {
				t.Errorf("fresh pair: A=%d R=%d, action %v, want same session and prefetch", r.ABarriers, r.RBarriers, a)
			}
			r.RBarriers = 2
			if a := c.AStoreAction(p); a != StoreSkip {
				t.Errorf("A behind R: action %v, want skip", a)
			}
			r.ABarriers = 2
			if a := c.AStoreAction(p); a != StorePrefetch {
				t.Errorf("A caught up: action %v, want prefetch", a)
			}
		})
}

func TestWirePairs(t *testing.T) {
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(true) // global sync default → self-invalidation allowed
	for _, nd := range m.Nodes {
		r, a := nd.Procs[0], nd.Procs[1]
		if r.Role != stats.RoleR || a.Role != stats.RoleA {
			t.Fatal("roles not assigned")
		}
		if r.Pair != a || a.Pair != r {
			t.Fatal("pairing not symmetric")
		}
		if !a.SelfInval || r.SelfInval {
			t.Fatal("self-invalidation wiring wrong")
		}
	}
	// Self-invalidation must be dropped under local sync.
	c2, _ := NewController(newM(), true, "LOCAL_SYNC,1")
	c2.WirePairs(true)
	if c2.M.Nodes[0].Procs[1].SelfInval {
		t.Fatal("self-invalidation enabled under local sync")
	}
}

func TestInjectDivergence(t *testing.T) {
	m := newM()
	c, _ := NewController(m, true, "")
	c.WirePairs(false)
	runPair(t, m,
		func(p *machine.Proc) { p.Compute(1) },
		func(p *machine.Proc) {
			c.InjectDivergence(p)
			if !c.ARecoveryPending(p) {
				t.Error("injected divergence not visible")
			}
			c.AAbsorbRecovery(p)
			if c.ARecoveryPending(p) {
				t.Error("recovery not absorbed")
			}
		})
}
