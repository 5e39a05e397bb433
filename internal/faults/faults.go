// Package faults is a seeded, fully deterministic fault-plan engine for
// the slipstream simulator. An Injector decides, from nothing but its
// seed and per-(class, actor) draw counters, whether a fault fires at a
// given hook point — so the same seed and rate produce a byte-identical
// run, and two runs of the same plan can execute concurrently without
// sharing any state.
//
// The injector exercises the paper's correctness story from the outside:
// A-streams never write the backing store (their shared stores are
// skipped or converted to exclusive prefetches), and divergence recovery
// (§2.2) resynchronizes a wayward A-stream from its R-stream. Every
// fault class here therefore costs time, never correctness — injected
// runs must still pass result verification.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/faults/splitmix"
	"repro/internal/sim"
)

// Class identifies one fault class the injector can arm.
type Class int

// Fault classes. The first three perturb the machine model, the next two
// the slipstream token protocol, the last the OpenMP thread schedule.
const (
	// MemSpike adds a latency spike to an L2-miss fill (a DRAM or deep
	// queue hiccup on the directory path).
	MemSpike Class = iota
	// BusBurst occupies a node's bus for a burst, queueing everything
	// behind it (DMA or IO traffic on the CMP bus).
	BusBurst
	// CMPStraggler slows every computation on a straggler node (thermal
	// throttling of one CMP). Membership is decided by seed and node ID.
	CMPStraggler
	// Divergence forces an A-stream recovery request at a barrier entry,
	// exercising the §2.2 recovery path and Recoveries accounting.
	Divergence
	// TokenLoss drops an R-inserted run-ahead token. A dropped token
	// always arms the recovery flag so the A-stream resynchronizes
	// instead of spinning forever on a semaphore nobody will post.
	TokenLoss
	// ThreadStraggler slows a straggler OpenMP thread per iteration
	// (OS interference), which static and dynamic scheduling absorb very
	// differently. Membership is decided by seed and thread ID.
	ThreadStraggler

	NumClasses
)

var classNames = [NumClasses]string{
	"mem", "bus", "cmp", "divergence", "token", "thread",
}

// String returns the spec spelling of the class.
func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass resolves a spec/CLI class name.
func ParseClass(s string) (Class, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for c, n := range classNames {
		if n == name {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown class %q (valid: %s)", s, strings.Join(classNames[:], ", "))
}

// ClassNames returns the valid class names in declaration order.
func ClassNames() []string { return append([]string(nil), classNames[:]...) }

// Config is a fault plan: a seed, a rate in [0, 1], and an optional class
// subset (empty = all classes armed).
type Config struct {
	Seed    uint64
	Rate    float64
	Classes []Class
}

// Validate rejects rates outside [0, 1] and unknown classes.
func (c Config) Validate() error {
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("faults: rate %g outside [0, 1]", c.Rate)
	}
	for _, cl := range c.Classes {
		if cl < 0 || cl >= NumClasses {
			return fmt.Errorf("faults: unknown class %d", int(cl))
		}
	}
	return nil
}

// String renders the plan in the -faults flag syntax.
func (c Config) String() string {
	s := fmt.Sprintf("%d:%g", c.Seed, c.Rate)
	if len(c.Classes) > 0 {
		names := make([]string, len(c.Classes))
		for i, cl := range c.Classes {
			names[i] = cl.String()
		}
		s += ":" + strings.Join(names, ",")
	}
	return s
}

// ParseSpec parses the -faults flag syntax "seed:rate[:class,class,...]",
// e.g. "42:0.05" or "7:0.2:token,divergence".
func ParseSpec(s string) (Config, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Config{}, fmt.Errorf("faults: spec %q is not seed:rate[:classes]", s)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return Config{}, fmt.Errorf("faults: bad seed %q: %v", parts[0], err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return Config{}, fmt.Errorf("faults: bad rate %q: %v", parts[1], err)
	}
	cfg := Config{Seed: seed, Rate: rate}
	if len(parts) == 3 {
		if cfg.Classes, err = parseClasses(parts[2]); err != nil {
			return Config{}, err
		}
	}
	return cfg, cfg.Validate()
}

// ParseSweep parses the chaos-study flag syntax
// "seed:rate,rate,...[:classes]" into a base plan (Rate unset) and the
// rate list, e.g. "42:0,0.05,0.2".
func ParseSweep(s string) (Config, []float64, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Config{}, nil, fmt.Errorf("faults: sweep spec %q is not seed:rate,...[:classes]", s)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return Config{}, nil, fmt.Errorf("faults: bad seed %q: %v", parts[0], err)
	}
	var rates []float64
	for _, rs := range strings.Split(parts[1], ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(rs), 64)
		if err != nil {
			return Config{}, nil, fmt.Errorf("faults: bad rate %q: %v", rs, err)
		}
		if err := (Config{Rate: r}).Validate(); err != nil {
			return Config{}, nil, err
		}
		rates = append(rates, r)
	}
	cfg := Config{Seed: seed}
	if len(parts) == 3 {
		if cfg.Classes, err = parseClasses(parts[2]); err != nil {
			return Config{}, nil, err
		}
	}
	return cfg, rates, nil
}

func parseClasses(s string) ([]Class, error) {
	var out []Class
	for _, name := range strings.Split(s, ",") {
		c, err := ParseClass(name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Injector is one run's fault plan instance. It is not safe for use from
// multiple goroutines, which matches the simulator: exactly one simulated
// processor executes at a time, and each run builds its own injector, so
// concurrent runs of the same plan stay independent and deterministic.
//
// A nil *Injector is a valid, permanently-quiet injector: every hook
// method returns zero, so the hot paths need no explicit guards.
type Injector struct {
	str       *splitmix.Stream
	threshold uint64 // rate mapped onto the hash range
	always    bool   // rate == 1
	enabled   [NumClasses]bool
	counts    [NumClasses]uint64
	noted     map[seqKey]bool // straggler membership, counted once
}

type seqKey struct {
	class Class
	actor int
}

// New builds an injector for cfg. A nil cfg, a zero rate, or an invalid
// plan yields a nil (quiet) injector; validate plans before running if
// errors must surface.
func New(cfg *Config) *Injector {
	if cfg == nil || cfg.Rate <= 0 || cfg.Validate() != nil {
		return nil
	}
	in := &Injector{
		str:   splitmix.NewStream(cfg.Seed),
		noted: map[seqKey]bool{},
	}
	// Rates that round up to 2^64 when scaled onto the draw range would
	// overflow the conversion, so they degrade to "always".
	in.threshold, in.always = splitmix.Threshold(cfg.Rate)
	if len(cfg.Classes) == 0 {
		for c := range in.enabled {
			in.enabled[c] = true
		}
	} else {
		for _, c := range cfg.Classes {
			in.enabled[c] = true
		}
	}
	return in
}

// mix64 keeps the package's historical shorthand for the shared
// splitmix64 finalizer (magnitude derivation below reuses it).
func mix64(x uint64) uint64 { return splitmix.Mix64(x) }

// roll consumes one draw from the (class, actor) stream. It returns
// whether the fault fires and the raw draw (reused for magnitudes so a
// fired fault's size is as deterministic as its occurrence).
func (in *Injector) roll(c Class, actor int) (bool, uint64) {
	if in == nil || !in.enabled[c] {
		return false, 0
	}
	h := in.str.Next(uint64(c), uint64(actor))
	if !in.always && h >= in.threshold {
		return false, 0
	}
	in.counts[c]++
	return true, h
}

// member reports straggler membership: a stable per-actor decision drawn
// once from the seed (no counter), so a straggler stays a straggler for
// the whole run. The first firing per actor counts as one injected fault.
func (in *Injector) member(c Class, actor int) bool {
	if in == nil || !in.enabled[c] {
		return false
	}
	h := in.str.DrawAt(uint64(c), uint64(actor), ^uint64(0)) // reserved draw index for membership
	if !in.always && h >= in.threshold {
		return false
	}
	k := seqKey{c, actor}
	if !in.noted[k] {
		in.noted[k] = true
		in.counts[c]++
	}
	return true
}

// MemSpikeLat returns the extra fill latency (cycles) for an L2 miss by
// the given processor, zero if no spike fires.
func (in *Injector) MemSpikeLat(gid int) sim.Time {
	fired, h := in.roll(MemSpike, gid)
	if !fired {
		return 0
	}
	return sim.Time(500 + mix64(h)%2000)
}

// BusBurstOcc returns the bus occupancy (cycles) of a contention burst on
// the given node, zero if no burst fires.
func (in *Injector) BusBurstOcc(node int) sim.Time {
	fired, h := in.roll(BusBurst, node)
	if !fired {
		return 0
	}
	return sim.Time(200 + mix64(h)%800)
}

// NodeSlowdown returns the extra compute cycles a straggler node pays on
// top of n (about a third more), zero for non-stragglers.
func (in *Injector) NodeSlowdown(node int, n sim.Time) sim.Time {
	if !in.member(CMPStraggler, node) {
		return 0
	}
	return n / 3
}

// ThreadStall returns the extra cycles a straggler thread pays for a
// chunk of the given iteration count, zero for non-stragglers.
func (in *Injector) ThreadStall(tid, iters int) sim.Time {
	if iters <= 0 || !in.member(ThreadStraggler, tid) {
		return 0
	}
	return sim.Time(iters) * 50
}

// ForceDivergence reports whether a forced A-stream divergence fires for
// the given processor's pair at this barrier entry.
func (in *Injector) ForceDivergence(gid int) bool {
	fired, _ := in.roll(Divergence, gid)
	return fired
}

// DropToken reports whether the token the given processor is about to
// insert is lost. Callers must pair a drop with a recovery request: a
// lost token with no recovery would leave the A-stream spinning forever.
func (in *Injector) DropToken(gid int) bool {
	fired, _ := in.roll(TokenLoss, gid)
	return fired
}

// Count returns how many faults of one class were injected.
func (in *Injector) Count(c Class) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[c]
}

// Total returns how many faults were injected across all classes.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for _, n := range in.counts {
		t += n
	}
	return t
}

// Summary renders the per-class injection counts for report lines, e.g.
// "mem=3 token=1" ("none" when nothing fired).
func (in *Injector) Summary() string {
	if in == nil {
		return "none"
	}
	var parts []string
	for c := Class(0); c < NumClasses; c++ {
		if in.counts[c] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, in.counts[c]))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
