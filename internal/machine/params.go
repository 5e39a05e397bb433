// Package machine assembles the simulated multiprocessor the paper
// evaluates on: N dual-processor CMP nodes, each with split per-processor
// L1 caches and a shared unified L2, connected by a fixed-delay network
// with contention modelled at the network inputs/outputs and at the memory
// controllers, and kept coherent by an invalidate-based fully-mapped
// directory protocol (paper §5 and Table 1).
package machine

import (
	"fmt"
	"strconv"

	"repro/internal/cache"
	"repro/internal/sim"
)

// Params are the simulated system parameters (paper Table 1). Latencies
// given in nanoseconds are converted to cycles at ClockGHz.
type Params struct {
	ClockGHz float64 // processor clock (1.2 GHz)
	Nodes    int     // number of dual-processor CMP nodes (16)

	LineBytes int // cache line size

	L1Bytes     int      // per-processor L1 size (16 KB)
	L1Assoc     int      // L1 associativity (2)
	L1HitCycles sim.Time // L1 hit latency (1 cycle)

	L2Bytes     int      // per-CMP unified L2 size (1 MB)
	L2Assoc     int      // L2 associativity (4)
	L2HitCycles sim.Time // L2 hit latency (10 cycles)

	// SimOS memory-system parameters (ns). Bus/NI/Mem values are used as
	// resource occupancies for contention; the Local/Remote minima are the
	// end-to-end uncontended miss latencies the paper quotes (170/290 ns).
	BusNS          int // node bus occupancy per transaction (30)
	PILocalDCNS    int // processor interface local dc time (10)
	NILocalDCNS    int // network interface local dc time (60)
	NIRemoteDCNS   int // network interface remote dc time (10)
	NetNS          int // network traversal per hop (50)
	MemNS          int // memory controller occupancy (50)
	LocalMissNS    int // minimum latency to fill L2 from local memory (170)
	RemoteMissNS   int // minimum latency to fill L2 from remote memory (290)
	DirtyForwardNS int // extra for 3-hop forwarding from a dirty owner
	InvalPerShNS   int // per-sharer serialization for invalidation fan-out

	RegAccessCycles sim.Time // CMP pair-register (hardware semaphore) access

	SpinPollCycles sim.Time // spin-wait polling interval

	Topology Topology // interconnect model (paper default: fixed delay)

	TraceCap int // retain the last N simulation events (0 = tracing off)

	TrackClass bool // classify shared requests for Figures 3/5
}

// DefaultParams returns the paper's Table 1 configuration.
func DefaultParams() Params {
	return Params{
		ClockGHz:        1.2,
		Nodes:           16,
		LineBytes:       64,
		L1Bytes:         16 * 1024,
		L1Assoc:         2,
		L1HitCycles:     1,
		L2Bytes:         1024 * 1024,
		L2Assoc:         4,
		L2HitCycles:     10,
		BusNS:           30,
		PILocalDCNS:     10,
		NILocalDCNS:     60,
		NIRemoteDCNS:    10,
		NetNS:           50,
		MemNS:           50,
		LocalMissNS:     170,
		RemoteMissNS:    290,
		DirtyForwardNS:  70, // one extra network hop + two remote DC times
		InvalPerShNS:    10,
		RegAccessCycles: 2,
		SpinPollCycles:  20,
		TrackClass:      true,
	}
}

// Cyc converts nanoseconds to clock cycles, rounding to nearest.
func (p Params) Cyc(ns int) sim.Time {
	return sim.Time(float64(ns)*p.ClockGHz + 0.5)
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.ClockGHz <= 0:
		return fmt.Errorf("machine: clock %v GHz invalid", p.ClockGHz)
	case p.Nodes <= 0 || p.Nodes > 64:
		return fmt.Errorf("machine: node count %d out of range", p.Nodes)
	case p.LineBytes <= 0 || p.LineBytes&(p.LineBytes-1) != 0:
		return fmt.Errorf("machine: line size %d not a power of two", p.LineBytes)
	case p.RemoteMissNS < p.LocalMissNS:
		return fmt.Errorf("machine: remote miss (%d ns) below local miss (%d ns)", p.RemoteMissNS, p.LocalMissNS)
	}
	if _, err := cache.Geometry(p.L1Bytes, p.L1Assoc, p.LineBytes); err != nil {
		return fmt.Errorf("machine: L1 %w", err)
	}
	if _, err := cache.Geometry(p.L2Bytes, p.L2Assoc, p.LineBytes); err != nil {
		return fmt.Errorf("machine: L2 %w", err)
	}
	return nil
}

// Table1 renders the configuration in the shape of the paper's Table 1.
// It appends with strconv rather than printing with fmt, so every call
// makes the same allocations: fmt's printer cache is per P, and a call
// on a P whose cache was cold allocated more.
func (p Params) Table1() string {
	b := make([]byte, 0, 512)
	num := func(label string, v int) { b = strconv.AppendInt(append(b, label...), int64(v), 10) }
	cyc := func(label string, v sim.Time) { b = strconv.AppendUint(append(b, label...), v, 10) }
	b = append(b, "Simulated System Parameters\n  CPU: dual-processor CMP model, clock "...)
	b = strconv.AppendFloat(b, p.ClockGHz, 'f', 1, 64)
	num(" GHz, ", p.Nodes)
	num(" nodes\n  L1 caches (I/D): ", p.L1Bytes/1024)
	num(" KB, ", p.L1Assoc)
	cyc("-way, hit ", p.L1HitCycles)
	num(" cycle(s)\n  L2 cache (unified, shared): ", p.L2Bytes/(1024*1024))
	num(" MB, ", p.L2Assoc)
	cyc("-way, hit ", p.L2HitCycles)
	num(" cycles\n  Memory parameters (ns): BusTime=", p.BusNS)
	num(" PILocalDCTime=", p.PILocalDCNS)
	num(" NILocalDCTime=", p.NILocalDCNS)
	num(" NIRemoteDCTime=", p.NIRemoteDCNS)
	num(" NetTime=", p.NetNS)
	num(" MemTime=", p.MemNS)
	num("\n  Minimum L2 fill latency: local ", p.LocalMissNS)
	num(" ns, remote ", p.RemoteMissNS)
	num(" ns\n  Line size: ", p.LineBytes)
	return string(append(b, " B\n"...))
}
