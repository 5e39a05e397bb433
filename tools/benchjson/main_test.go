package main

import "testing"

// Baselines compare by name across hosts, so the GOMAXPROCS suffix goes
// and nothing else does.
func TestTrimProcs(t *testing.T) {
	for _, c := range []struct {
		name  string
		procs int
		want  string
	}{
		{"BenchmarkFig2CG/Single-4", 4, "BenchmarkFig2CG/Single"},
		{"BenchmarkFig2CG/Single", 1, "BenchmarkFig2CG/Single"},
		{"BenchmarkAblationTopology/mesh-2d-2", 2, "BenchmarkAblationTopology/mesh-2d"},
		{"BenchmarkX/size-8", 2, "BenchmarkX/size-8"},
		{"BenchmarkX/size-8", 1, "BenchmarkX/size-8"},
	} {
		if got := trimProcs(c.name, c.procs); got != c.want {
			t.Errorf("trimProcs(%q, %d) = %q, want %q", c.name, c.procs, got, c.want)
		}
	}
}
