package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
)

func tasksOpts(jobs int) Options {
	return Options{Scale: npb.ScaleTest, Jobs: jobs}
}

// The acceptance bar for the tasking study: the same grid renders
// byte-identical reports at any -jobs value — work stealing inside each
// cell and cell-level parallelism across the suite must both be
// deterministic.
func TestTasksDeterministicAtAnyJobs(t *testing.T) {
	render := func(jobs int) string {
		s, err := RunTasksCtx(context.Background(), tasksOpts(jobs), []int{2, 4}, []int{2, 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("tasks cells failed: %v", err)
		}
		var buf bytes.Buffer
		s.Table(&buf)
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("tasks report differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", seq, par)
	}
	if !strings.Contains(seq, "verification: PASSED") {
		t.Fatalf("report missing verification line:\n%s", seq)
	}
}

// The grid must include the loop baseline and every cut-off at every team
// size, report steals in the task cells (master-spawned roots force the
// team to steal), and keep the loop baseline steal-free.
func TestTasksGridShape(t *testing.T) {
	s, err := RunTasksCtx(context.Background(), tasksOpts(0), []int{4}, []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	rows := s.Rows[4]
	if len(rows) != 2 || rows[0].Cutoff != -1 || rows[1].Cutoff != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, mode := range tasksModeOrder {
		loop, ok := rows[0].Results[mode]
		if !ok {
			t.Fatalf("missing loop/%s cell", mode)
		}
		if loop.TasksRun != 0 || loop.Steals != 0 {
			t.Fatalf("loop baseline ran tasks: tasks=%d steals=%d", loop.TasksRun, loop.Steals)
		}
		tree, ok := rows[1].Results[mode]
		if !ok {
			t.Fatalf("missing cut=3/%s cell", mode)
		}
		// A saturated depth-3 tree has 2^4-1 = 15 nodes, each one task.
		if tree.TasksRun != 15 {
			t.Fatalf("cut=3/%s: ran %d tasks, want 15", mode, tree.TasksRun)
		}
		if tree.Steals == 0 {
			t.Fatalf("cut=3/%s: root spawned on master but nothing was stolen", mode)
		}
	}
}

// Compile is the one validator of the tasking grid: the runner takes its
// sorted, distinct, in-range axes as given.
func TestTasksRejectsBadGrid(t *testing.T) {
	for _, tc := range []struct {
		teams, cutoffs []int
		want           string
	}{
		{[]int{0}, []int{2}, "node_counts value 0 is below the minimum 1"},
		{[]int{2, 65}, []int{2}, "node_counts value 65 is above the maximum 64"},
		{[]int{4, 2, 4}, []int{2}, "duplicate node_counts value 4"},
		{[]int{2}, []int{npb.MaxTreeCutoff + 1}, "cutoffs value 13 is above the maximum 12"},
		{[]int{2}, []int{-1}, "cutoffs value -1 is below the minimum 0"},
		{[]int{2}, []int{3, 3}, "duplicate cutoffs value 3"},
	} {
		_, err := Compile(Spec{Kind: KindTasks, NodeCounts: tc.teams, Cutoffs: tc.cutoffs})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("teams %v cutoffs %v: Compile error %v, want one mentioning %q", tc.teams, tc.cutoffs, err, tc.want)
		}
	}
	// An empty axis never reaches the runner: it takes the default grid.
	st := mustCompile(t, Spec{Kind: KindTasks, Cutoffs: []int{4, 2}})
	if !reflect.DeepEqual(st.Spec.NodeCounts, []int{2, 4, 8}) || !reflect.DeepEqual(st.Spec.Cutoffs, []int{2, 4}) {
		t.Fatalf("grid = %v × %v, want the default teams × the sorted cut-offs", st.Spec.NodeCounts, st.Spec.Cutoffs)
	}
}

// Chaos × tasking: straggler faults slow individual threads mid-drain, so
// the rest of the team steals the backed-up work away — and the committed
// result must still verify. Several injected cells run concurrently so
// `make race` exercises concurrent steals under stalls.
func TestTasksUnderStragglersStillVerify(t *testing.T) {
	p := machine.DefaultParams()
	p.Nodes = 4
	plan := &faults.Config{Seed: 11, Rate: 0.5, Classes: []faults.Class{faults.ThreadStraggler}}
	cfgs := []omp.Config{
		{Machine: p, Mode: core.ModeSingle, Faults: plan},
		{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Faults: plan},
		{Machine: p, Mode: core.ModeSingle, Faults: plan},
		{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Faults: plan},
	}
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	done := make(chan int)
	for i := range cfgs {
		go func(i int) {
			defer func() { done <- i }()
			results[i], errs[i] = RunOne(npb.TreeKernel(4), "chaos-tasks", cfgs[i], npb.ScaleTest, true)
		}(i)
	}
	for range cfgs {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d failed under straggler injection: %v", i, err)
		}
		if results[i].Faults == 0 {
			t.Fatalf("cell %d: rate-0.5 straggler plan injected nothing", i)
		}
		if results[i].Steals == 0 {
			t.Fatalf("cell %d: stragglers held work but nothing was stolen", i)
		}
	}
	// Identical configurations under injection must still be deterministic.
	if results[0].Wall != results[2].Wall || results[1].Wall != results[3].Wall {
		t.Fatalf("straggler runs nondeterministic: single %d/%d, slip %d/%d",
			results[0].Wall, results[2].Wall, results[1].Wall, results[3].Wall)
	}
}
