package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The fleet workload is a seeded open loop: every request has a due
// time fixed in advance, and its latency counts from that due time, so
// a stall in the server (or in the generator) shows up in every request
// that waited behind it.

// runSpec is one kind "run" job spec, posted as JSON to POST /jobs.
type runSpec struct {
	Kind   string `json:"kind"`
	Kernel string `json:"kernel"`
	Mode   string `json:"mode"`
	Sync   string `json:"sync,omitempty"`
	Tokens int    `json:"tokens,omitempty"`
	Sched  string `json:"sched"`
	Nodes  int    `json:"nodes"`
	Scale  string `json:"scale"`
}

// Miss pool: kernel × nodes × (mode, sync, tokens, sched). Every entry
// is a distinct simulation, so every miss really runs.
var (
	poolKernels = []string{"BT", "CG", "LU", "MG", "SP"}
	poolNodes   = []int{4, 8}
	poolTokens  = 8
)

// variants lists the distinct run specs of one (kernel, nodes) pair.
// LU hard-codes static scheduling, so it gets no dynamic variants.
func variants(kernel string, nodes int) []runSpec {
	scheds := []string{"static", "dynamic"}
	if kernel == "LU" {
		scheds = scheds[:1]
	}
	var out []runSpec
	for _, sched := range scheds {
		for _, mode := range []string{"single", "double"} {
			out = append(out, runSpec{Kind: "run", Kernel: kernel, Mode: mode, Sched: sched, Nodes: nodes, Scale: "test"})
		}
		for _, sync := range []string{"GLOBAL_SYNC", "LOCAL_SYNC"} {
			for tok := 0; tok < poolTokens; tok++ {
				out = append(out, runSpec{Kind: "run", Kernel: kernel, Mode: "slipstream", Sync: sync, Tokens: tok, Sched: sched, Nodes: nodes, Scale: "test"})
			}
		}
	}
	return out
}

// loadShape fixes a workload's open-loop rates. Counts are rate ×
// duration, raised to the minimum each reported percentile needs.
type loadShape struct {
	missRate  float64       // distinct new specs per second
	hitRate   float64       // resubmissions of finished keys per second
	dedupRate float64       // bursts of identical in-flight submissions per second
	burst     int           // submissions per dedup burst
	hitStart  time.Duration // hits start once some misses have finished
}

type reqKind int

const (
	reqMiss reqKind = iota
	reqHit
	reqDedup
)

// event is one scheduled request.
type event struct {
	due  time.Duration // offset from the start of the loop
	kind reqKind
	miss int    // miss and dedup: index into the miss list
	pick uint32 // hit: selects among the keys finished by the due time
}

// loadPlan is everything a seed determines: the misses in submission
// order and the arrival schedule.
type loadPlan struct {
	misses []runSpec
	events []event
}

// plan builds the seeded spec list and arrival schedule. Misses are
// stratified: each block of ten submits every (kernel, nodes) pair
// once, in a seeded order with a seeded variant, so any seed offers the
// same mix of work.
func plan(seed int64, shape loadShape, dur time.Duration) loadPlan {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		specs []runSpec
		next  int
	}
	var pairs []*pair
	capacity := 0
	for _, k := range poolKernels {
		for _, n := range poolNodes {
			v := variants(k, n)
			rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
			pairs = append(pairs, &pair{specs: v})
			capacity += len(v)
		}
	}
	secs := dur.Seconds()
	nMiss := atLeast(shape.missRate*secs, minMissSamples)
	nHit := atLeast(shape.hitRate*secs, 1000)
	nDedup := int(math.Round(shape.dedupRate * secs))
	// The loop stretches rather than the rate rising when a minimum count
	// exceeds rate × duration.
	if need := time.Duration(float64(nMiss) / shape.missRate * float64(time.Second)); need > dur {
		dur = need
	}
	if need := shape.hitStart + time.Duration(float64(nHit)/shape.hitRate*float64(time.Second)); need > dur {
		dur = need
	}

	var p loadPlan
	for len(p.misses) < nMiss {
		progressed := false
		for _, i := range rng.Perm(len(pairs)) {
			pr := pairs[i]
			if pr.next < len(pr.specs) && len(p.misses) < nMiss {
				p.misses = append(p.misses, pr.specs[pr.next])
				pr.next++
				progressed = true
			}
		}
		if !progressed || len(p.misses) >= capacity {
			break // the pool is exhausted: fewer, still distinct, misses
		}
	}
	missDue := arrivals(rng, len(p.misses), 0, dur)
	for i, d := range missDue {
		p.events = append(p.events, event{due: d, kind: reqMiss, miss: i})
	}
	for i := 0; i < nDedup; i++ {
		m := rng.Intn(len(p.misses))
		for b := 0; b < shape.burst; b++ {
			// Just behind the miss: the job is still queued or running.
			p.events = append(p.events, event{due: missDue[m] + time.Duration(b+1)*time.Millisecond, kind: reqDedup, miss: m})
		}
	}
	for _, d := range arrivals(rng, nHit, shape.hitStart, dur) {
		p.events = append(p.events, event{due: d, kind: reqHit, pick: rng.Uint32()})
	}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].due < p.events[j].due })
	return p
}

func atLeast(x float64, min int) int {
	n := int(math.Round(x))
	if n < min {
		return min
	}
	return n
}

// arrivals spreads n arrivals at a constant rate over [from, to), each
// jittered by up to a quarter of the interval. A constant rate keeps the
// sample size fixed and, unlike Poisson arrivals, does not let one seed
// pile misses onto each other more than another seed does.
func arrivals(rng *rand.Rand, n int, from, to time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	step := float64(to-from) / float64(n)
	for i := range out {
		out[i] = from + time.Duration((float64(i)+0.5+(rng.Float64()-0.5)/2)*step)
	}
	return out
}

// sample is one request's timing in the open loop.
type sample struct {
	due  time.Time
	sent time.Time
	done time.Time // zero when the request's completion is observed elsewhere
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample) lag() time.Duration     { return s.sent.Sub(s.due) }

// openLoop issues every event at its due time on one goroutine. send
// returns when its request has been answered (or, for a request whose
// completion is observed later, when it has been accepted). A request
// that is sent late keeps its original due time.
func openLoop(start time.Time, events []event, send func(event) (done time.Time)) []sample {
	out := make([]sample, len(events))
	for i, ev := range events {
		due := start.Add(ev.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i] = sample{due: due, sent: time.Now()}
		out[i].done = send(ev)
	}
	return out
}
