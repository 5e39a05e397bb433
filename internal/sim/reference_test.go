package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The engine's event order is checked here against a naive reference
// scheduler: one that keeps every pending event in a list, sorts it by
// (time, sequence) before each pop, and runs the same seeded programs
// without goroutines. The traces of (time, name) records must match
// exactly, and so must the engine's counts.

// opKind is one step of a generated context body.
type opKind uint8

const (
	opAdvance opKind = iota // Advance(d); d may be 0, which does not park
	opSpin                  // SpinPark(d) with a countdown spinner of n steps, gap apart
	opAt                    // At(now+d) a callback that records itself
	opSpawn                 // Spawn a child at now+d running body n
)

type op struct {
	kind opKind
	d    Time
	n    int
	gap  Time
}

// setup is one call made before Run: a root context spawned at start with
// body, or (body < 0) a callback scheduled at start.
type setup struct {
	start Time
	body  int
}

type program struct {
	setups []setup
	bodies [][]op // bodies[0:roots] may spawn bodies[roots:], which do not spawn
}

// genProgram draws a program of up to 128 contexts. Delays of 0-30
// cycles make many events share a time, so ties are broken by sequence
// throughout. A third of the programs start at most initialLeaves roots,
// so that spawns from running contexts grow the wake tree mid-run.
func genProgram(r *rand.Rand) *program {
	const maxContexts = 128
	p := &program{}
	roots := 1 + r.Intn(100)
	if r.Intn(3) == 0 {
		roots = 1 + r.Intn(initialLeaves)
	}
	children := 1 + r.Intn(8)
	delay := func() Time { return Time(r.Intn(31)) }
	contexts := roots
	body := func(spawns bool) []op {
		ops := make([]op, r.Intn(13))
		for i := range ops {
			switch k := r.Intn(20); {
			case k < 10:
				ops[i] = op{kind: opAdvance, d: delay()}
			case k < 14:
				ops[i] = op{kind: opSpin, d: 1 + delay(), n: 1 + r.Intn(6), gap: 1 + delay()}
			case k < 17 || !spawns || contexts == maxContexts:
				ops[i] = op{kind: opAt, d: delay()}
			default:
				ops[i] = op{kind: opSpawn, d: delay(), n: roots + r.Intn(children)}
				contexts++
			}
		}
		return ops
	}
	for i := 0; i < roots; i++ {
		p.bodies = append(p.bodies, body(true))
		p.setups = append(p.setups, setup{start: delay(), body: i})
	}
	for i := 0; i < children; i++ {
		p.bodies = append(p.bodies, body(false))
	}
	for i := r.Intn(6); i > 0; i-- {
		at := r.Intn(len(p.setups) + 1)
		p.setups = append(p.setups[:at], append([]setup{{start: delay(), body: -1}}, p.setups[at:]...)...)
	}
	return p
}

// tracedSpin is a countdown spinner that records each of its steps.
type tracedSpin struct {
	countdown
	rec func()
}

func (s *tracedSpin) Step() (Time, bool) {
	s.rec()
	return s.countdown.Step()
}

// runEngine runs p on the engine and returns its trace and counts, and
// whether the wake tree grew while Run was executing.
func runEngine(p *program) (trace []string, ctr Counters, grew bool, err error) {
	e := NewEngine()
	rec := func(name string) { trace = append(trace, fmt.Sprintf("%d %s", e.Now(), name)) }
	var body func(name string, ops []op) func(*Context)
	body = func(name string, ops []op) func(*Context) {
		return func(c *Context) {
			rec(name)
			for i, o := range ops {
				switch o.kind {
				case opAdvance:
					c.Advance(o.d)
				case opSpin:
					c.SpinPark(o.d, &tracedSpin{countdown{n: o.n, gap: o.gap}, func() { rec(name + " step") }})
				case opAt:
					cb := fmt.Sprintf("%s cb%d", name, i)
					e.At(c.Now()+o.d, func() { rec(cb) })
				case opSpawn:
					child := fmt.Sprintf("%s.%d", name, i)
					e.Spawn(child, c.Now()+o.d, body(child, p.bodies[o.n]))
				}
				rec(name)
			}
		}
	}
	for k, s := range p.setups {
		if s.body < 0 {
			cb := fmt.Sprintf("cb%d", k)
			e.At(s.start, func() { rec(cb) })
			continue
		}
		name := fmt.Sprintf("c%d", k)
		e.Spawn(name, s.start, body(name, p.bodies[s.body]))
	}
	leaves := e.wakes.leaves()
	err = e.Run()
	return trace, e.Counters(), e.wakes.leaves() > leaves, err
}

// refCtx is a context of the reference scheduler: its body and the index
// of the op it runs next, and its spin countdown while spin-parked.
type refCtx struct {
	name string
	ops  []op
	pc   int
	spin *countdown
}

type refEvent struct {
	at, seq Time
	ctx     *refCtx // nil for a callback
	cb      string  // the callback's name
}

// runReference runs p without goroutines or a priority queue and returns
// the trace and counts the engine must produce. Its Switches field holds
// every resume of a context's body, which the engine splits between
// Switches and Resumes.
func runReference(p *program) (trace []string, ctr Counters) {
	var now, seq Time
	var pending []refEvent
	schedule := func(at Time, c *refCtx, cb string) {
		if at < now {
			at = now
		}
		seq++
		pending = append(pending, refEvent{at: at, seq: seq, ctx: c, cb: cb})
	}
	rec := func(name string) { trace = append(trace, fmt.Sprintf("%d %s", now, name)) }
	// resume runs c's body from where it parked until it parks again or ends.
	resume := func(c *refCtx) {
		rec(c.name)
		for c.pc < len(c.ops) {
			o := c.ops[c.pc]
			c.pc++
			switch o.kind {
			case opAdvance:
				if o.d > 0 {
					schedule(now+o.d, c, "")
					return
				}
			case opSpin:
				c.spin = &countdown{n: o.n, gap: o.gap}
				schedule(now+o.d, c, "")
				return
			case opAt:
				schedule(now+o.d, nil, fmt.Sprintf("%s cb%d", c.name, c.pc-1))
			case opSpawn:
				child := fmt.Sprintf("%s.%d", c.name, c.pc-1)
				schedule(now+o.d, &refCtx{name: child, ops: p.bodies[o.n]}, "")
			}
			rec(c.name)
		}
	}
	for k, s := range p.setups {
		if s.body < 0 {
			schedule(s.start, nil, fmt.Sprintf("cb%d", k))
		} else {
			schedule(s.start, &refCtx{name: fmt.Sprintf("c%d", k), ops: p.bodies[s.body]}, "")
		}
	}
	for len(pending) > 0 {
		sort.Slice(pending, func(i, j int) bool {
			a, b := pending[i], pending[j]
			return a.at < b.at || (a.at == b.at && a.seq < b.seq)
		})
		ev := pending[0]
		pending = pending[1:]
		now = ev.at
		ctr.Events++
		c := ev.ctx
		if c == nil {
			rec(ev.cb)
			continue
		}
		if c.spin != nil {
			ctr.SpinSteps++
			rec(c.name + " step")
			if wait, done := c.spin.Step(); !done {
				schedule(now+wait, c, "")
				continue
			}
			c.spin = nil
		}
		ctr.Switches++
		resume(c)
	}
	return trace, ctr
}

// Property: on seeded random programs the engine produces exactly the
// reference scheduler's (time, name) trace, event count, spin-step count,
// and one switch or resume per resumption of a body.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	const programs = 300
	grown := 0
	for seed := int64(1); seed <= programs; seed++ {
		p := genProgram(rand.New(rand.NewSource(seed)))
		got, ctr, grew, err := runEngine(p)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		want, ref := runReference(p)
		if i := firstDiff(got, want); i >= 0 {
			lo := max(i-3, 0)
			t.Fatalf("seed %d: trace differs at record %d of %d/%d:\nengine:    %s\nreference: %s", seed, i, len(got), len(want),
				strings.Join(got[lo:min(i+4, len(got))], " | "), strings.Join(want[lo:min(i+4, len(want))], " | "))
		}
		if ctr.Events != ref.Events || ctr.SpinSteps != ref.SpinSteps || ctr.Switches+ctr.Resumes != ref.Switches {
			t.Fatalf("seed %d: engine counted %+v, reference %d events, %d spin steps, %d resumptions",
				seed, ctr, ref.Events, ref.SpinSteps, ref.Switches)
		}
		if grew {
			grown++
		}
	}
	if grown == 0 {
		t.Fatalf("no program grew the wake tree during Run; the generator no longer covers a Spawn that grows it")
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
