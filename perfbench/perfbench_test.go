package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/npb"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q       float64
		refused int // largest sample count that must be refused
	}{{0.5, 19}, {0.9, 99}, {0.99, 999}} {
		if _, err := percentile(seq(tc.refused), tc.q); err == nil {
			t.Errorf("p%g of %d samples: want a refusal", 100*tc.q, tc.refused)
		}
		if _, err := percentile(seq(tc.refused+1), tc.q); err != nil {
			t.Errorf("p%g of %d samples: %v", 100*tc.q, tc.refused+1, err)
		}
	}
	if v, _ := percentile(seq(100), 0.9); v != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", v)
	}
	if v, _ := percentile(seq(1000), 0.99); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
}

func TestWindowsKeepEverySample(t *testing.T) {
	for _, n := range []int{5, 999, 1000, 1001, 2999, 3000} {
		ws := windows(seq(n), 1000)
		total := 0
		for _, w := range ws {
			if len(ws) > 1 && len(w) < 1000 {
				t.Errorf("%d samples: a window of %d, want at least 1000", n, len(w))
			}
			total += len(w)
		}
		if total != n {
			t.Errorf("%d samples: windows hold %d", n, total)
		}
	}
}

func TestWindowTails(t *testing.T) {
	var xs []float64
	for b := 0; b < 3; b++ {
		w := seq(1000)
		if b > 0 {
			for i := range w {
				w[i] *= 10 // a tail that shows in two windows of three
			}
		}
		xs = append(xs, w...)
	}
	var l latencies
	if v := l.medianWindow(xs, 0.99, 1000); v != 9900 || l.err != nil {
		t.Errorf("median window p99 = %v (%v), want the slow windows' 9900", v, l.err)
	}
	if v := l.lowestWindow(xs, 0.5, 1000); v != 500 || l.err != nil {
		t.Errorf("lowest window p50 = %v (%v), want the quiet window's 500", v, l.err)
	}
	if l.medianWindow(seq(999), 0.99, 1000); l.err == nil {
		t.Error("999 samples gave a p99")
	}
}

func TestSeedFixesSpecPoolAndSchedule(t *testing.T) {
	a := plan(7, openLoopShape, 20*time.Second)
	b := plan(7, openLoopShape, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different plans")
	}
	if c := plan(8, openLoopShape, 20*time.Second); reflect.DeepEqual(a.misses, c.misses) {
		t.Error("seeds 7 and 8 gave the same miss list")
	}
	seen := map[runSpec]bool{}
	for _, s := range a.misses {
		if seen[s] {
			t.Fatalf("miss spec %+v repeats: a repeat would be a hit", s)
		}
		seen[s] = true
	}
	if len(a.misses) < minMissSamples {
		t.Errorf("%d misses, want at least %d for a p90", len(a.misses), minMissSamples)
	}
	hits := 0
	for i, ev := range a.events {
		if i > 0 && ev.due < a.events[i-1].due {
			t.Fatal("schedule not in due order")
		}
		if ev.kind == reqHit {
			hits++
		}
	}
	if hits < 1000 {
		t.Errorf("%d hits, want at least 1000 for a p99", hits)
	}
	if !reflect.DeepEqual(campaignPlan(3, 6), campaignPlan(3, 6)) {
		t.Error("one seed gave two different campaigns")
	}
}

func TestCampaignShape(t *testing.T) {
	c := campaignPlan(1, 6)
	specs := map[runSpec]bool{}
	ids := map[string]bool{}
	for _, cell := range c.Cells {
		specs[cell.Spec] = true
		ids[cell.ID] = true
	}
	if len(c.Cells) != 16 || len(specs) != 12 {
		t.Fatalf("%d cells over %d distinct specs, want 16 over 12", len(c.Cells), len(specs))
	}
	for _, cell := range c.Cells {
		for _, dep := range cell.After {
			if !ids[dep] {
				t.Errorf("cell %s runs after unknown cell %s", cell.ID, dep)
			}
		}
	}
}

func TestDigestCheckFiresOnOneByteChange(t *testing.T) {
	o := experiments.Options{Nodes: 2, Scale: npb.ScaleTest, Verify: true, Jobs: 1, Kernels: []string{"MG"}}
	s, err := experiments.RunStatic(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &passOut{static: s}
	good := p.render()
	want := digest(good)
	rep := newReport()
	checkOutput(rep, good, want, "unchanged")
	if rep.failed != 0 {
		t.Fatalf("unchanged output failed the check: %v", rep.mismatch)
	}
	for _, i := range []int{0, len(good) / 2, len(good) - 1} {
		bad := bytes.Clone(good)
		bad[i] ^= 1
		rep := newReport()
		checkOutput(rep, bad, want, "changed")
		if rep.failed != 1 || len(rep.mismatch) != 1 {
			t.Errorf("flipping byte %d: check did not fire", i)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	events := []event{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	start := time.Now()
	first := true
	samples := openLoop(start, events, func(event) time.Time {
		if first {
			first = false
			time.Sleep(60 * time.Millisecond) // a stalled first request
		}
		return time.Now()
	})
	for i, s := range samples {
		if !s.due.Equal(start.Add(events[i].due)) {
			t.Errorf("event %d: due %v, want the scheduled %v", i, s.due, start.Add(events[i].due))
		}
	}
	// The later requests were sent late; their latency includes the wait.
	for _, i := range []int{1, 2} {
		if lag := samples[i].lag(); lag < 30*time.Millisecond {
			t.Errorf("event %d lag %v: the stall was not charged", i, lag)
		}
		if samples[i].latency() < samples[i].lag() {
			t.Errorf("event %d latency %v shorter than its lag %v", i, samples[i].latency(), samples[i].lag())
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(tc.defs) != len(tc.json) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", tc.what, len(tc.defs), len(tc.json))
			continue
		}
		for i, d := range tc.defs {
			if d.name != tc.json[i].Name || d.unit != tc.json[i].Unit {
				t.Errorf("%s[%d]: %s %s here, %s %s in BENCHMARK.json", tc.what, i, d.name, d.unit, tc.json[i].Name, tc.json[i].Unit)
			}
		}
	}
}
