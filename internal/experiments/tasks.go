package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/omp"
)

// The tasking study measures task-runtime overhead under slipstream
// execution — the question the paper could not ask (it predates OpenMP
// 3.0 tasking): does the A-stream's skeletonized execution still buy a
// speedup when work arrives through work-stealing deques instead of
// static loop partitions? The study runs the recursive TREE kernel over
// a team-size × cut-off grid, in plain single mode and in slipstream
// G0, against the TREEL worksharing-loop baseline of the identical
// computation. Deeper cut-offs mean exponentially more, smaller tasks,
// so the grid sweeps the granularity axis where per-task scheduling and
// decision-handoff overhead must eventually eat the parallelism.

// tasksModeOrder is the report order of the per-cell execution modes.
var tasksModeOrder = []string{"single", "slip-G0"}

// TasksRow is one configuration's results at one team size: the loop
// baseline (Cutoff -1) or the task tree at a cut-off depth.
type TasksRow struct {
	Cutoff  int               // -1 = TREEL loop baseline
	Results map[string]Result // mode name → result
}

// TasksSuite holds a tasking-study sweep's results.
type TasksSuite struct {
	Scale   npb.Scale
	Teams   []int              // ascending, distinct
	Cutoffs []int              // ascending, distinct
	Rows    map[int][]TasksRow // team → baseline row then cut-off rows
	Errors  []CellError
}

// Err returns the per-cell failures joined into one error, nil if none.
func (s *TasksSuite) Err() error {
	if s == nil {
		return nil
	}
	return joinCellErrors(s.Errors)
}

// RunTasksCtx sweeps the tasking grid: for every team size, the TREEL
// loop baseline plus the TREE task tree at every cut-off, each in single
// and slipstream-G0 mode. Both axes come as Compile normalizes them:
// ascending, distinct and in range. Verification is forced on regardless
// of o.Verify — in slipstream mode only R-stream commits count, and a
// cell whose skeleton replay corrupted the result must fail loudly, not
// render. Cells run on up to o.Jobs workers and are collected in matrix
// order, so reports are byte-identical at any concurrency; cancelling
// ctx aborts the cells not yet started, as in the other suite runners.
func RunTasksCtx(ctx context.Context, o Options, teams, cutoffs []int, progress io.Writer) (*TasksSuite, error) {
	s := &TasksSuite{Scale: o.Scale, Teams: teams, Cutoffs: cutoffs, Rows: map[int][]TasksRow{}}

	type cell struct {
		team   int
		cutoff int // -1 = loop baseline
		mode   string
		kernel npb.Kernel
		cfg    omp.Config
	}
	var cells []cell
	for _, team := range teams {
		p := o.params()
		p.Nodes = team
		modeCfg := func(mode string) omp.Config {
			if mode == "slip-G0" {
				return omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0,
					SelfInvalidate: o.SelfInvalidate}
			}
			return omp.Config{Machine: p, Mode: core.ModeSingle}
		}
		s.Rows[team] = append(s.Rows[team], TasksRow{Cutoff: -1, Results: map[string]Result{}})
		for _, mode := range tasksModeOrder {
			cells = append(cells, cell{team, -1, mode, npb.TreeLoopKernel(), modeCfg(mode)})
		}
		for _, c := range cutoffs {
			s.Rows[team] = append(s.Rows[team], TasksRow{Cutoff: c, Results: map[string]Result{}})
			for _, mode := range tasksModeOrder {
				cells = append(cells, cell{team, c, mode, npb.TreeKernel(c), modeCfg(mode)})
			}
		}
	}

	pw := newProgress(progress)
	results, errs := collect(ctx, o.Jobs, len(cells), func(i int) (Result, error) {
		c := cells[i]
		pw.printf("tasks %s/%s @ team %d...\n", cellLabel(c.cutoff), c.mode, c.team)
		return RunOne(c.kernel, c.mode, c.cfg, o.Scale, true)
	})
	for i, c := range cells {
		if errs[i] != nil {
			s.Errors = append(s.Errors, CellError{Kernel: c.kernel.Name,
				Config: fmt.Sprintf("team=%d/%s/%s", c.team, cellLabel(c.cutoff), c.mode), Err: errs[i]})
			continue
		}
		rows := s.Rows[c.team]
		for ri := range rows {
			if rows[ri].Cutoff == c.cutoff {
				rows[ri].Results[c.mode] = results[i]
				break
			}
		}
	}
	return s, nil
}

// cellLabel names a row: the loop baseline or a cut-off depth.
func cellLabel(cutoff int) string {
	if cutoff < 0 {
		return "loop"
	}
	return fmt.Sprintf("cut=%d", cutoff)
}

// Table renders the grid in the Fig2–Fig5 deterministic style. Per cell:
// cycles, tasks executed, steals, speedup versus the loop/single baseline
// at the same team size ("vs-loop" > 1 means the tasking version wins),
// and for slipstream cells the slipstream speedup over the same
// configuration's single-mode run ("slip" > 1 means slipstream wins).
// Cells without results (failed or cancelled) render "n/a".
func (s *TasksSuite) Table(w io.Writer) {
	fmt.Fprintf(w, "Tasking study (scale %s): TREE task tree vs TREEL loop baseline, work-stealing deques\n", s.Scale)
	fmt.Fprintln(w, "vs-loop: speedup over loop/single at the same team size; slip: same config, single over slip-G0")
	fmt.Fprintf(w, "%4s %-7s %-8s %12s %8s %8s %8s %7s\n",
		"team", "config", "mode", "cycles", "tasks", "steals", "vs-loop", "slip")
	cellCount := 0
	for _, team := range s.Teams {
		rows := s.Rows[team]
		var baseWall uint64
		for _, row := range rows {
			if row.Cutoff == -1 {
				if r, ok := row.Results["single"]; ok {
					baseWall = r.Wall
				}
			}
		}
		for _, row := range rows {
			single, haveSingle := row.Results["single"]
			for _, mode := range tasksModeOrder {
				r, ok := row.Results[mode]
				if !ok {
					continue
				}
				cellCount++
				vsLoop := "n/a"
				if baseWall > 0 && r.Wall > 0 {
					vsLoop = fmt.Sprintf("%.3f", float64(baseWall)/float64(r.Wall))
				}
				slip := "-"
				if mode == "slip-G0" {
					slip = "n/a"
					if haveSingle && r.Wall > 0 {
						slip = fmt.Sprintf("%.3f", float64(single.Wall)/float64(r.Wall))
					}
				}
				fmt.Fprintf(w, "%4d %-7s %-8s %12d %8d %8d %8s %7s\n",
					team, cellLabel(row.Cutoff), mode, r.Wall, r.TasksRun, r.Steals, vsLoop, slip)
			}
		}
		fmt.Fprintln(w)
	}
	if len(s.Errors) > 0 {
		fmt.Fprintf(w, "%d cell(s) FAILED:\n", len(s.Errors))
		for _, e := range s.Errors {
			fmt.Fprintf(w, "  %s\n", e.Error())
		}
		return
	}
	fmt.Fprintf(w, "verification: PASSED for all %d cells (skeleton replays never touched committed results)\n", cellCount)
}
