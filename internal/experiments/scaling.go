package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
)

// ScalingRow is one machine size of a fixed-problem-size scaling study.
type ScalingRow struct {
	Nodes int
	Walls map[string]uint64 // config name → simulated cycles
}

// scalingConfigs are the modes compared in the scaling study.
var scalingConfigs = []string{"single", "double", "slip-G0"}

// scalingConfig resolves a scaling-study config name for a machine size.
func scalingConfig(name string, p machine.Params) omp.Config {
	switch name {
	case "double":
		return omp.Config{Machine: p, Mode: core.ModeDouble}
	case "slip-G0":
		return omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0}
	default: // "single"
		return omp.Config{Machine: p, Mode: core.ModeSingle}
	}
}

// RunScalingCtx runs kernel at a fixed problem size across machine sizes —
// the paper's motivating scenario (§1–2): as CMPs are added, single/double
// speedup saturates once communication dominates, and slipstream extends
// the scaling by spending the second processor on latency instead of
// parallelism. The (machine size × mode) cells are independent and run on
// up to jobs workers (0 = one per host CPU); rows come back in nodeCounts
// order regardless of completion order. Failed cells are skipped in their
// row and aggregated into the returned error alongside the surviving rows;
// cells not yet started when ctx is done are aborted and reported there
// too.
func RunScalingCtx(ctx context.Context, kernelName string, nodeCounts []int, scale npb.Scale, jobs int, verify bool, progress io.Writer) ([]ScalingRow, error) {
	k, err := npb.ByName(kernelName)
	if err != nil {
		return nil, err
	}
	type cell struct {
		nodes int
		name  string
		cfg   omp.Config
	}
	var cells []cell
	for _, n := range nodeCounts {
		p := machine.DefaultParams()
		p.Nodes = n
		for _, name := range scalingConfigs {
			cells = append(cells, cell{nodes: n, name: name, cfg: scalingConfig(name, p)})
		}
	}
	pw := newProgress(progress)
	walls, errs := collect(ctx, jobs, len(cells), func(i int) (uint64, error) {
		c := cells[i]
		pw.printf("scaling %s: %d nodes, %s...\n", k.Name, c.nodes, c.name)
		r, err := RunOne(k, c.name, c.cfg, scale, verify)
		if err != nil {
			return 0, err
		}
		return r.Wall, nil
	})
	var rows []ScalingRow
	var cellErrs []CellError
	for i, c := range cells {
		if i%len(scalingConfigs) == 0 {
			rows = append(rows, ScalingRow{Nodes: c.nodes, Walls: map[string]uint64{}})
		}
		if errs[i] != nil {
			cellErrs = append(cellErrs, CellError{Kernel: k.Name,
				Config: fmt.Sprintf("%s@%d-nodes", c.name, c.nodes), Err: errs[i]})
			continue
		}
		rows[len(rows)-1].Walls[c.name] = walls[i]
	}
	return rows, joinCellErrors(cellErrs)
}

// PrintScaling renders the study as speedup over the smallest machine's
// single-mode run. Cells without a result (failed runs) render as "n/a".
func PrintScaling(kernel string, rows []ScalingRow, w io.Writer) {
	if len(rows) == 0 {
		return
	}
	base, haveBase := rows[0].Walls["single"]
	fmt.Fprintf(w, "Fixed-size scaling, %s (speedup vs single mode on %d CMP(s))\n", kernel, rows[0].Nodes)
	fmt.Fprintf(w, "%-6s", "CMPs")
	for _, c := range scalingConfigs {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-6d", row.Nodes)
		for _, c := range scalingConfigs {
			wall, ok := row.Walls[c]
			if haveBase && base > 0 && ok && wall > 0 {
				fmt.Fprintf(w, " %10.3f", float64(base)/float64(wall))
			} else {
				fmt.Fprintf(w, " %10s", "n/a")
			}
		}
		fmt.Fprintln(w)
	}
	if !haveBase {
		fmt.Fprintln(w, "note: single-mode baseline missing (failed run); speedups n/a")
	}
}

// TokenSweepRow is one token-count setting of a token-policy sweep.
type TokenSweepRow struct {
	Cfg  core.Config
	Wall uint64
}

// RunTokenSweepCtx measures a kernel under a range of A–R
// synchronization policies (both insertion points, several initial token
// counts). The policy cells run on up to jobs workers (0 = one per host
// CPU) and rows come back in policy order. Failed cells, and cells
// aborted by ctx, are dropped from the rows and aggregated into the
// returned error.
func RunTokenSweepCtx(ctx context.Context, kernelName string, nodes int, scale npb.Scale, tokenCounts []int, jobs int, verify bool, progress io.Writer) ([]TokenSweepRow, error) {
	k, err := npb.ByName(kernelName)
	if err != nil {
		return nil, err
	}
	p := machine.DefaultParams()
	p.Nodes = nodes
	var scs []core.Config
	for _, typ := range []core.SyncType{core.GlobalSync, core.LocalSync} {
		for _, tok := range tokenCounts {
			scs = append(scs, core.Config{Type: typ, Tokens: tok})
		}
	}
	pw := newProgress(progress)
	walls, errs := collect(ctx, jobs, len(scs), func(i int) (uint64, error) {
		sc := scs[i]
		pw.printf("token sweep %s: %s...\n", k.Name, sc)
		cfg := omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: sc}
		r, err := RunOne(k, sc.String(), cfg, scale, verify)
		if err != nil {
			return 0, err
		}
		return r.Wall, nil
	})
	var rows []TokenSweepRow
	var cellErrs []CellError
	for i, sc := range scs {
		if errs[i] != nil {
			cellErrs = append(cellErrs, CellError{Kernel: k.Name, Config: sc.String(), Err: errs[i]})
			continue
		}
		rows = append(rows, TokenSweepRow{Cfg: sc, Wall: walls[i]})
	}
	return rows, joinCellErrors(cellErrs)
}

// PrintTokenSweep renders the sweep with speedups versus the first row.
func PrintTokenSweep(kernel string, rows []TokenSweepRow, w io.Writer) {
	if len(rows) == 0 {
		return
	}
	base := rows[0].Wall
	fmt.Fprintf(w, "A-R synchronization sweep, %s\n", kernel)
	for _, row := range rows {
		fmt.Fprintf(w, "  %-16s %12d cycles   %+6.1f%%\n", row.Cfg, row.Wall,
			100*(float64(base)/float64(row.Wall)-1))
	}
}
