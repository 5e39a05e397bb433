package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/npb"
)

// quickOpts returns a fast configuration for functional tests.
func quickOpts() Options {
	o := DefaultOptions()
	o.Nodes = 4
	o.Scale = npb.ScaleTest
	o.Kernels = []string{"CG"}
	return o
}

func TestTable1Renders(t *testing.T) {
	var sb strings.Builder
	Table1(DefaultOptions(), &sb)
	for _, want := range []string{"1.2 GHz", "16 nodes", "170 ns"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Table1 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestTable2Renders(t *testing.T) {
	var sb strings.Builder
	if err := Table2(DefaultOptions(), &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BT", "CG", "LU", "MG", "SP", "static only"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Table2 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestStaticSuiteAndRendering(t *testing.T) {
	s, err := RunStatic(quickOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.Static["CG"]
	if len(rs) != 4 {
		t.Fatalf("static configs = %d, want 4", len(rs))
	}
	for name, r := range rs {
		if r.Wall == 0 {
			t.Fatalf("%s: zero wall time", name)
		}
		if r.Breakdown.Total() == 0 {
			t.Fatalf("%s: empty breakdown", name)
		}
	}
	var f2, f3 strings.Builder
	s.Fig2(&f2)
	if !strings.Contains(f2.String(), "speedup") || !strings.Contains(f2.String(), "slip-G0") {
		t.Fatalf("Fig2 output malformed:\n%s", f2.String())
	}
	s.Fig3(&f3)
	if !strings.Contains(f3.String(), "A-timely") {
		t.Fatalf("Fig3 output malformed:\n%s", f3.String())
	}
}

func TestDynamicSuiteAndRendering(t *testing.T) {
	s, err := RunDynamicCtx(context.Background(), quickOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.Dynamic["CG"]
	if len(rs) != 2 {
		t.Fatalf("dynamic configs = %d, want 2", len(rs))
	}
	var f4, f5 strings.Builder
	s.Fig4(&f4)
	if !strings.Contains(f4.String(), "single-dyn") {
		t.Fatalf("Fig4 output malformed:\n%s", f4.String())
	}
	s.Fig5(&f5)
	if !strings.Contains(f5.String(), "readex") {
		t.Fatalf("Fig5 output malformed:\n%s", f5.String())
	}
}

func TestDynamicExcludesLU(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"LU"}
	s, err := RunDynamicCtx(context.Background(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dynamic) != 0 {
		t.Fatal("LU ran under dynamic scheduling")
	}
}

func TestKernelFilter(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"mg", " cg "} // case-insensitive, whitespace-tolerant
	ks, err := o.kernels()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0].Name != "CG" || ks[1].Name != "MG" {
		t.Fatalf("filter resolved %v", ks)
	}
}

func TestKernelFilterUnknown(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"GM"}
	if _, err := o.kernels(); err == nil {
		t.Fatal("unknown kernel accepted")
	} else if !strings.Contains(err.Error(), `"GM"`) || !strings.Contains(err.Error(), "BT, CG, LU, MG, SP") {
		t.Fatalf("error does not name the kernel and the valid set: %v", err)
	}
	if _, err := RunStatic(o, nil); err == nil {
		t.Fatal("RunStatic accepted unknown kernel")
	}
	if _, err := RunDynamicCtx(context.Background(), o, nil); err == nil {
		t.Fatal("RunDynamic accepted unknown kernel")
	}
	var sb strings.Builder
	if err := Table2(o, &sb); err == nil {
		t.Fatal("Table2 accepted unknown kernel")
	}
}

func TestSelfInvalidationOption(t *testing.T) {
	o := quickOpts()
	o.SelfInvalidate = true
	s, err := RunStatic(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Static["CG"]["slip-G0"].Wall == 0 {
		t.Fatal("self-invalidation run missing")
	}
}

// TestPaperShapeStatic checks the headline Figure 2 property at paper
// scale: on every kernel the best slipstream configuration beats the best
// of single and double mode. Slow (full 16-CMP matrix); skipped in -short.
func TestPaperShapeStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape test")
	}
	o := DefaultOptions()
	s, err := RunStatic(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sortedKernels(s.Static) {
		rs := s.Static[k]
		best := minWall(rs, "slip-G0", "slip-L1")
		bestBase := minWall(rs, "single", "double")
		if best >= bestBase {
			t.Errorf("%s: best slipstream (%d) not better than best base (%d)", k, best, bestBase)
		}
	}
}

// TestPaperShapeDynamic checks the Figure 4 property: slipstream improves
// the dynamic-scheduling base on every dynamic-capable kernel.
func TestPaperShapeDynamic(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape test")
	}
	o := DefaultOptions()
	s, err := RunDynamicCtx(context.Background(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sortedKernels(s.Dynamic) {
		rs := s.Dynamic[k]
		if rs["slip-G0-dyn"].Wall >= rs["single-dyn"].Wall {
			t.Errorf("%s: slipstream (%d) did not improve dynamic base (%d)",
				k, rs["slip-G0-dyn"].Wall, rs["single-dyn"].Wall)
		}
	}
}

// TestPaperShapeSyncContrast checks the Figure 3 property: one-token-local
// lets the A-stream convert more of its read coverage into timely fills
// than zero-token-global, and produces more premature (A-only) fills.
func TestPaperShapeSyncContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape test")
	}
	o := DefaultOptions()
	o.Kernels = []string{"CG", "MG"}
	s, err := RunStatic(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sortedKernels(s.Static) {
		g0 := s.Static[k]["slip-G0"].Class
		l1 := s.Static[k]["slip-L1"].Class
		if l1.Share(1, 0, 0) <= g0.Share(1, 0, 0) {
			t.Errorf("%s: L1 A-timely reads (%.1f%%) not above G0 (%.1f%%)",
				k, 100*l1.Share(1, 0, 0), 100*g0.Share(1, 0, 0))
		}
		if l1.Share(1, 0, 2) < g0.Share(1, 0, 2) {
			t.Errorf("%s: L1 premature fills (%.1f%%) below G0 (%.1f%%)",
				k, 100*l1.Share(1, 0, 2), 100*g0.Share(1, 0, 2))
		}
	}
}

func TestWriteCSV(t *testing.T) {
	s, err := RunStatic(quickOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 { // header + 4 configs
		t.Fatalf("csv lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "kernel,config,size,cycles,busy,") {
		t.Fatalf("csv header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "CG,") {
			t.Fatalf("row = %q", l)
		}
	}
}

func TestSortedConfigsStable(t *testing.T) {
	rs := map[string]Result{"slip-L1": {}, "single": {}, "weird": {}, "double": {}}
	got := sortedConfigs(rs)
	if got[0] != "single" || got[1] != "double" || got[2] != "slip-L1" || got[3] != "weird" {
		t.Fatalf("order = %v", got)
	}
}

func TestWriteCSVIncludesDynamic(t *testing.T) {
	s, err := RunDynamicCtx(context.Background(), quickOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "single-dyn") || !strings.Contains(sb.String(), "slip-G0-dyn") {
		t.Fatalf("dynamic rows missing:\n%s", sb.String())
	}
}
