package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/synth"
)

func TestRunScalingSmoke(t *testing.T) {
	rows, err := RunScaling("CG", []int{2, 4}, npb.ScaleTest, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		for _, cfg := range []string{"single", "double", "slip-G0"} {
			if row.Walls[cfg] == 0 {
				t.Fatalf("%d nodes %s: zero wall", row.Nodes, cfg)
			}
		}
	}
	var sb strings.Builder
	PrintScaling("CG", rows, &sb)
	for _, want := range []string{"CMPs", "single", "slip-G0", "1.000"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("scaling output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunScalingUnknownKernel(t *testing.T) {
	if _, err := RunScaling("NOPE", []int{2}, npb.ScaleTest, 1, false, nil); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestRunScalingInvalidNodeCountIsCellError: a node count the machine
// refuses fails its own cells instead of crashing the process.
func TestRunScalingInvalidNodeCountIsCellError(t *testing.T) {
	rows, err := RunScalingCtx(context.Background(), "CG", []int{2, 65}, npb.ScaleTest, 1, false, nil)
	var ce CellError
	if !errors.As(err, &ce) || !strings.Contains(ce.Config, "65-nodes") || !strings.Contains(err.Error(), "node count 65 out of range") {
		t.Fatalf("err = %v, want a CellError for the 65-node cells", err)
	}
	if len(rows) != 2 || len(rows[0].Walls) != len(scalingConfigs) || len(rows[1].Walls) != 0 {
		t.Fatalf("rows = %+v, want the 2-node row complete and the 65-node row empty", rows)
	}
}

func TestScalingSingleModeMonotoneWork(t *testing.T) {
	// Adding nodes must never change results, only timing: verify stays on.
	rows, err := RunScaling("LU", []int{2, 4}, npb.ScaleTest, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
}

func TestTokenSweepSmoke(t *testing.T) {
	rows, err := RunTokenSweep("MG", 4, npb.ScaleTest, []int{0, 1}, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 sync types x 2 token counts
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	PrintTokenSweep("MG", rows, &sb)
	if !strings.Contains(sb.String(), "GLOBAL_SYNC,0") || !strings.Contains(sb.String(), "LOCAL_SYNC,1") {
		t.Fatalf("token sweep output:\n%s", sb.String())
	}
}

func TestPrintScalingEmpty(t *testing.T) {
	var sb strings.Builder
	PrintScaling("CG", nil, &sb)
	PrintTokenSweep("CG", nil, &sb)
	if sb.Len() != 0 {
		t.Fatalf("empty studies printed %q", sb.String())
	}
}

// TestPaperShapeScaling checks the paper's motivating claim at small scale:
// by 16 CMPs, slipstream mode beats double mode for a fixed-size problem
// whose parallelism has saturated.
func TestPaperShapeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine scaling study")
	}
	rows, err := RunScaling("MG", []int{4, 16}, npb.ScaleSmall, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.Walls["slip-G0"] >= last.Walls["double"] {
		t.Errorf("at 16 CMPs slipstream (%d) did not beat double (%d)",
			last.Walls["slip-G0"], last.Walls["double"])
	}
}

func TestCharacterizeSmoke(t *testing.T) {
	rows, err := Characterize(4, synth.Params{Elems: 1024, Iters: 2, Work: 3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(synth.Names()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Winner == "" || len(r.Walls) != 4 {
			t.Fatalf("row %+v incomplete", r)
		}
	}
	var sb strings.Builder
	PrintCharacterization(rows, &sb)
	for _, want := range []string{"workload", "winner", "stream", "taskfarm"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
	_ = winnersByKind(rows)
}

// TestPaperShapeCharacterization: at 16 CMPs, the communication-bound
// patterns (neighbour exchange with per-sweep boundary migration, and
// lock-dominated updates) favor slipstream, while the private streaming
// sweep — with nothing to hide — favors double mode's extra parallelism.
func TestPaperShapeCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("16-CMP characterization")
	}
	rows, err := Characterize(16, synth.DefaultParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	win := winnersByKind(rows)
	if w := win["stream"]; w != "double" {
		t.Errorf("stream winner = %s, want double (no communication to hide)", w)
	}
	if w := win["exchange"]; w != "slip-G0" && w != "slip-L1" {
		t.Errorf("exchange winner = %s, want a slipstream config", w)
	}
	if w := win["lockstep"]; w != "slip-G0" && w != "slip-L1" {
		t.Errorf("lockstep winner = %s, want a slipstream config", w)
	}
}
