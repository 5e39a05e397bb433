package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/synth"
)

// TestParallelStaticDeterminism is the worker pool's core guarantee: the
// suite results and every rendered artifact are byte-identical whether the
// matrix ran sequentially or on eight workers.
func TestParallelStaticDeterminism(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"CG", "MG"}
	o.Jobs = 1
	s1, err := RunStatic(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Jobs = 8
	s8, err := RunStatic(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Errors) != 0 || len(s8.Errors) != 0 {
		t.Fatalf("unexpected cell errors: %v / %v", s1.Errors, s8.Errors)
	}
	if !reflect.DeepEqual(s1.Static, s8.Static) {
		t.Fatal("Jobs=1 and Jobs=8 produced different results")
	}
	var f1, f8, c1, c8 strings.Builder
	s1.Fig2(&f1)
	s8.Fig2(&f8)
	if f1.String() != f8.String() {
		t.Fatalf("Fig2 output differs:\n%s\n---\n%s", f1.String(), f8.String())
	}
	if err := s1.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := s8.WriteCSV(&c8); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c8.String() {
		t.Fatal("CSV output differs between Jobs=1 and Jobs=8")
	}
}

func TestParallelDynamicDeterminism(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"CG", "MG"}
	o.Jobs = 1
	s1, err := RunDynamicCtx(context.Background(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Jobs = 8
	s8, err := RunDynamicCtx(context.Background(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Dynamic, s8.Dynamic) {
		t.Fatal("Jobs=1 and Jobs=8 produced different dynamic results")
	}
	var f1, f8 strings.Builder
	s1.Fig4(&f1)
	s8.Fig4(&f8)
	if f1.String() != f8.String() {
		t.Fatalf("Fig4 output differs:\n%s\n---\n%s", f1.String(), f8.String())
	}
}

func TestParallelScalingDeterminism(t *testing.T) {
	r1, err := RunScalingCtx(context.Background(), "CG", []int{2, 4}, npb.ScaleTest, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunScalingCtx(context.Background(), "CG", []int{2, 4}, npb.ScaleTest, 8, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("scaling rows differ: %v vs %v", r1, r8)
	}
	var p1, p8 strings.Builder
	PrintScaling("CG", r1, &p1)
	PrintScaling("CG", r8, &p8)
	if p1.String() != p8.String() {
		t.Fatal("scaling output differs between Jobs=1 and Jobs=8")
	}
}

func TestParallelCharacterizeDeterminism(t *testing.T) {
	p := synth.Params{Elems: 512, Iters: 2, Work: 3}
	r1, err := CharacterizeCtx(context.Background(), 2, p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := CharacterizeCtx(context.Background(), 2, p, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("characterization rows differ: %v vs %v", r1, r8)
	}
}

// TestFailingCellDoesNotAbort injects a cell that cannot even construct a
// runtime (unknown execution mode) between two good cells and checks that
// the good cells still produce results while the bad one is reported with
// its identity.
func TestFailingCellDoesNotAbort(t *testing.T) {
	o := quickOpts()
	k, err := npb.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	p := machine.DefaultParams()
	p.Nodes = o.Nodes
	cells := []matrixCell{
		{kernel: k, rc: runConfig{"single", omp.Config{Machine: p, Mode: core.ModeSingle}}},
		{kernel: k, rc: runConfig{"broken", omp.Config{Machine: p, Mode: core.Mode(99)}}},
		{kernel: k, rc: runConfig{"double", omp.Config{Machine: p, Mode: core.ModeDouble}}},
	}
	for _, jobs := range []int{1, 4} {
		results, errs := runCells(context.Background(), cells, jobs, o, "static", nil)
		if errs[0] != nil || errs[2] != nil {
			t.Fatalf("jobs=%d: good cells failed: %v, %v", jobs, errs[0], errs[2])
		}
		if errs[1] == nil {
			t.Fatalf("jobs=%d: broken cell did not fail", jobs)
		}
		if results[0].Wall == 0 || results[2].Wall == 0 {
			t.Fatalf("jobs=%d: good cells missing results", jobs)
		}
		ce := CellError{Kernel: k.Name, Config: "broken", Err: errs[1]}
		if !strings.Contains(ce.Error(), "CG/broken") {
			t.Fatalf("cell error lacks identity: %q", ce.Error())
		}
	}
}

// cancelAfterFirstWrite is a progress writer that cancels a context the
// first time a progress line is emitted — i.e. as the first cell starts.
type cancelAfterFirstWrite struct {
	cancel context.CancelFunc
	wrote  bool
}

func (c *cancelAfterFirstWrite) Write(p []byte) (int, error) {
	if !c.wrote {
		c.wrote = true
		c.cancel()
	}
	return len(p), nil
}

// TestCancelledSuiteReturnsPartialErrors cancels the context as the first
// static cell starts and checks the contract the slipd job queue depends
// on: the call returns (no hang), every cell resolves to either a result
// or a Suite.Errors entry, and the aborted cells carry context.Canceled.
func TestCancelledSuiteReturnsPartialErrors(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		o := quickOpts()
		o.Kernels = []string{"CG", "MG"}
		o.Jobs = jobs
		ctx, cancel := context.WithCancel(context.Background())
		s, err := RunStaticCtx(ctx, o, &cancelAfterFirstWrite{cancel: cancel})
		cancel()
		if err != nil {
			t.Fatalf("jobs=%d: configuration error: %v", jobs, err)
		}
		if len(s.Errors) == 0 {
			t.Fatalf("jobs=%d: cancelled suite reported no cell errors", jobs)
		}
		got := 0
		for _, rs := range s.Static {
			got += len(rs)
		}
		if total := 2 * 4; got+len(s.Errors) != total { // 2 kernels × 4 configs
			t.Fatalf("jobs=%d: %d results + %d errors != %d cells", jobs, got, len(s.Errors), total)
		}
		for _, ce := range s.Errors {
			if !errors.Is(ce.Err, context.Canceled) {
				t.Fatalf("jobs=%d: cell error is not context.Canceled: %v", jobs, ce)
			}
			if ce.Kernel == "" || ce.Config == "" {
				t.Fatalf("jobs=%d: cell error lacks identity: %+v", jobs, ce)
			}
		}
		if err := s.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: Suite.Err() = %v", jobs, err)
		}
	}
}

// TestCancelledScalingReturnsPartialErrors covers the same contract for
// the scaling study, which slipd exposes as a job kind.
func TestCancelledScalingReturnsPartialErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := RunScalingCtx(ctx, "CG", []int{2, 4}, npb.ScaleTest, 1,
		true, &cancelAfterFirstWrite{cancel: cancel})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cells := 0
	for _, r := range rows {
		cells += len(r.Walls)
	}
	if cells >= 2*3 {
		t.Fatalf("cancellation aborted nothing: %d of 6 cells ran", cells)
	}
}

// TestProgressSerialized drives an 8-worker suite with progress enabled
// into one shared buffer: the mutex-guarded writer must keep every line
// intact (under -race this also proves the writer is synchronized).
func TestProgressSerialized(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"CG", "MG"}
	o.Jobs = 8
	var buf bytes.Buffer
	s, err := RunStatic(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Errors) != 0 {
		t.Fatalf("cell errors: %v", s.Errors)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := 2 * 4; len(lines) != want { // 2 kernels × 4 static configs
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), want, buf.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "running ") || !strings.HasSuffix(l, "(static)...") {
			t.Fatalf("torn progress line %q", l)
		}
	}
}

func TestFig2MissingBaseline(t *testing.T) {
	s := &Suite{Static: map[string]map[string]Result{
		"CG": {"double": {Kernel: "CG", Config: "double", Wall: 100}},
	}}
	var sb strings.Builder
	s.Fig2(&sb)
	out := sb.String()
	if !strings.Contains(out, "n/a") || !strings.Contains(out, "baseline missing") {
		t.Fatalf("missing-baseline guard absent:\n%s", out)
	}
	if strings.Contains(out, "+Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("garbage speedup rendered:\n%s", out)
	}
}

func TestFig4MissingBaseline(t *testing.T) {
	s := &Suite{Dynamic: map[string]map[string]Result{
		"CG": {"slip-G0-dyn": {Kernel: "CG", Config: "slip-G0-dyn", Wall: 100}},
	}}
	var sb strings.Builder
	s.Fig4(&sb)
	out := sb.String()
	if !strings.Contains(out, "n/a") || !strings.Contains(out, "baseline missing") {
		t.Fatalf("missing-baseline guard absent:\n%s", out)
	}
	if strings.Contains(out, "+Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("garbage speedup rendered:\n%s", out)
	}
}

func TestPrintScalingMissingCell(t *testing.T) {
	rows := []ScalingRow{
		{Nodes: 2, Walls: map[string]uint64{"single": 100, "double": 50}}, // slip-G0 failed
	}
	var sb strings.Builder
	PrintScaling("CG", rows, &sb)
	if !strings.Contains(sb.String(), "n/a") {
		t.Fatalf("missing cell not rendered as n/a:\n%s", sb.String())
	}
}

func TestProgressWriterNilSafe(t *testing.T) {
	var pw *progressWriter // nil = -q
	pw.printf("must not panic %d\n", 1)
	if newProgress(nil) != nil {
		t.Fatal("newProgress(nil) != nil")
	}
}
