package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/synth"
)

// CharRow is one synthetic workload's mode comparison.
type CharRow struct {
	Workload string
	Desc     string
	Walls    map[string]uint64
	Winner   string
}

// CharacterizeCtx runs every synthetic workload under the four static-
// scheduling configurations and reports which execution mode wins — the
// workload-type → best-mode map that frames where slipstream pays off
// (communication-bound patterns) and where it does not (embarrassingly
// parallel streaming, where double mode's extra parallelism wins). The
// (workload × config) cells run on up to jobs workers (0 = one per host
// CPU); rows come back in synth.Names order with the winner resolved by
// the fixed config order, so output is identical at any concurrency.
// Failed cells, and cells aborted by ctx, are dropped from their row and
// aggregated into the returned error.
func CharacterizeCtx(ctx context.Context, nodes int, p synth.Params, jobs int, progress io.Writer) ([]CharRow, error) {
	mp := machine.DefaultParams()
	mp.Nodes = nodes
	names := synth.Names()
	cfgs := staticConfigs(mp, false)
	type cell struct {
		workload string
		rc       runConfig
	}
	var cells []cell
	for _, name := range names {
		for _, rc := range cfgs {
			cells = append(cells, cell{workload: name, rc: rc})
		}
	}
	type outcome struct {
		wall uint64
		desc string
	}
	pw := newProgress(progress)
	outs, errs := collect(ctx, jobs, len(cells), func(i int) (outcome, error) {
		c := cells[i]
		pw.printf("characterize %s/%s...\n", c.workload, c.rc.name)
		rt, err := omp.New(c.rc.cfg)
		if err != nil {
			return outcome{}, err
		}
		w, err := synth.Build(c.workload, rt, p)
		if err != nil {
			return outcome{}, err
		}
		if err := rt.Run(w.Program); err != nil {
			return outcome{}, fmt.Errorf("%s/%s: %w", c.workload, c.rc.name, err)
		}
		if err := w.Verify(); err != nil {
			return outcome{}, fmt.Errorf("%s/%s: %w", c.workload, c.rc.name, err)
		}
		return outcome{wall: rt.M.WallTime(), desc: w.Desc}, nil
	})
	var rows []CharRow
	var cellErrs []CellError
	i := 0
	for _, name := range names {
		row := CharRow{Workload: name, Walls: map[string]uint64{}}
		for _, rc := range cfgs {
			if errs[i] != nil {
				cellErrs = append(cellErrs, CellError{Kernel: name, Config: rc.name, Err: errs[i]})
			} else {
				row.Desc = outs[i].desc
				row.Walls[rc.name] = outs[i].wall
			}
			i++
		}
		// Resolve the winner in config order (not map order) so ties
		// break the same way on every run.
		for _, rc := range cfgs {
			wall, ok := row.Walls[rc.name]
			if !ok {
				continue
			}
			if row.Winner == "" || wall < row.Walls[row.Winner] {
				row.Winner = rc.name
			}
		}
		rows = append(rows, row)
	}
	return rows, joinCellErrors(cellErrs)
}

// PrintCharacterization renders the workload → mode map.
func PrintCharacterization(rows []CharRow, w io.Writer) {
	fmt.Fprintln(w, "Synthetic workload characterization (cycles; lower is better)")
	fmt.Fprintf(w, "%-9s %10s %10s %10s %10s  %s\n", "workload", "single", "double", "slip-G0", "slip-L1", "winner")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %10d %10d %10d %10d  %s\n", r.Workload,
			r.Walls["single"], r.Walls["double"], r.Walls["slip-G0"], r.Walls["slip-L1"], r.Winner)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %s\n", r.Workload, r.Desc)
	}
}

// winnersByKind is used by tests to assert the expected characterization
// shape without duplicating the harness.
func winnersByKind(rows []CharRow) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Workload] = r.Winner
	}
	return out
}
