package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/npb"
	"repro/internal/omp"
)

// The chaos suite sweeps a deterministic fault plan across injection
// rates and measures how gracefully slipstream execution degrades. The
// load-bearing invariant it exercises: A-streams never write the backing
// store and divergence recovery (§2.2) resynchronizes them from their
// R-streams, so no injected fault may ever corrupt an R-stream result —
// faults cost time, never correctness. Every cell therefore runs with
// verification forced on, and a cell that fails to verify fails the
// suite loudly instead of rendering.

// chaosConfigOrder is the report order of the per-kernel configurations:
// static slipstream for every kernel, dynamic for kernels that allow it
// (the straggler classes hit the two schedules very differently).
var chaosConfigOrder = []string{"slip-G0", "slip-G0-dyn"}

// ChaosRow is one fault rate's results for one kernel.
type ChaosRow struct {
	Rate    float64
	Results map[string]Result // config name → result
}

// ChaosSuite holds a chaos sweep's results.
type ChaosSuite struct {
	Plan    faults.Config // seed and class subset (Rate varies per row)
	Rates   []float64     // ascending, distinct, 0 first
	Kernels []string      // report order
	Rows    map[string][]ChaosRow
	Errors  []CellError
}

// Err returns the per-cell failures joined into one error, nil if none.
func (s *ChaosSuite) Err() error {
	if s == nil {
		return nil
	}
	return joinCellErrors(s.Errors)
}

// RunChaosCtx sweeps the fault plan across rates for every kernel in
// o's filter: each rate runs the full plan at that rate (plan.Rate is
// ignored), and rate 0 runs fault-free. The rates come as Compile
// normalizes them: ascending, distinct, each a valid plan rate, with the
// baseline 0 first. Verification is forced on regardless of o.Verify.
// Cells run on up to o.Jobs workers and are collected in matrix order,
// so reports are byte-identical at any concurrency; cancelling ctx
// aborts the cells not yet started, as in the other suite runners.
func RunChaosCtx(ctx context.Context, o Options, plan faults.Config, rates []float64, progress io.Writer) (*ChaosSuite, error) {
	ks, err := o.kernels()
	if err != nil {
		return nil, err
	}
	s := &ChaosSuite{Plan: plan, Rates: rates, Rows: map[string][]ChaosRow{}}
	p := o.params()

	type cell struct {
		kernel npb.Kernel
		rate   float64
		name   string
		cfg    omp.Config
	}
	var cells []cell
	for _, k := range ks {
		s.Kernels = append(s.Kernels, k.Name)
		for _, rate := range s.Rates {
			s.Rows[k.Name] = append(s.Rows[k.Name], ChaosRow{Rate: rate, Results: map[string]Result{}})
			var fc *faults.Config
			if rate > 0 {
				c := plan
				c.Rate = rate
				fc = &c
			}
			cells = append(cells, cell{k, rate, "slip-G0", omp.Config{
				Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0,
				SelfInvalidate: o.SelfInvalidate, Faults: fc,
			}})
			if k.Dynamic {
				cells = append(cells, cell{k, rate, "slip-G0-dyn", omp.Config{
					Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0,
					Sched: omp.Dynamic, Chunk: k.ChunkFor(o.Scale, p.Nodes), Faults: fc,
				}})
			}
		}
	}

	pw := newProgress(progress)
	results, errs := collect(ctx, o.Jobs, len(cells), func(i int) (Result, error) {
		c := cells[i]
		pw.printf("chaos %s/%s @ rate %g...\n", c.kernel.Name, c.name, c.rate)
		return RunOne(c.kernel, c.name, c.cfg, o.Scale, true)
	})
	for i, c := range cells {
		if errs[i] != nil {
			s.Errors = append(s.Errors, CellError{Kernel: c.kernel.Name,
				Config: fmt.Sprintf("%s@rate=%g", c.name, c.rate), Err: errs[i]})
			continue
		}
		rows := s.Rows[c.kernel.Name]
		for ri := range rows {
			if rows[ri].Rate == c.rate {
				rows[ri].Results[c.name] = results[i]
				break
			}
		}
	}
	return s, nil
}

// Totals sums the injected faults and the divergence recoveries across
// all cells.
func (s *ChaosSuite) Totals() (injected, recoveries uint64) {
	for _, rows := range s.Rows {
		for _, row := range rows {
			for _, r := range row.Results {
				injected += r.Faults
				recoveries += r.Recoveries
			}
		}
	}
	return injected, recoveries
}

// classList names the plan's armed classes ("all" when unrestricted).
func classList(cs []faults.Class) string {
	if len(cs) == 0 {
		return "all"
	}
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.String()
	}
	return strings.Join(names, ",")
}

// Curves renders the degradation curves in the Fig2–Fig5 deterministic
// table style: per kernel and configuration, cycles, slowdown versus the
// same configuration's fault-free run, recoveries, and injected faults at
// each rate. Cells without results (failed or filtered) render "n/a".
func (s *ChaosSuite) Curves(w io.Writer) {
	fmt.Fprintf(w, "Chaos degradation curves (seed %d, classes %s; slowdown vs same config at rate 0)\n",
		s.Plan.Seed, classList(s.Plan.Classes))
	fmt.Fprintf(w, "%-4s %-12s %8s %12s %9s %11s %9s\n",
		"app", "config", "rate", "cycles", "slowdown", "recoveries", "injected")
	cellCount := 0
	for _, name := range s.Kernels {
		rows := s.Rows[name]
		for _, cfg := range chaosConfigOrder {
			var base uint64
			for _, row := range rows {
				if row.Rate == 0 {
					if r, ok := row.Results[cfg]; ok {
						base = r.Wall
					}
				}
			}
			printed := false
			for _, row := range rows {
				r, ok := row.Results[cfg]
				if !ok {
					continue
				}
				printed = true
				cellCount++
				if base > 0 && r.Wall > 0 {
					fmt.Fprintf(w, "%-4s %-12s %8g %12d %9.3f %11d %9d\n",
						name, cfg, row.Rate, r.Wall, float64(r.Wall)/float64(base), r.Recoveries, r.Faults)
				} else {
					fmt.Fprintf(w, "%-4s %-12s %8g %12d %9s %11d %9d\n",
						name, cfg, row.Rate, r.Wall, "n/a", r.Recoveries, r.Faults)
				}
			}
			if printed {
				fmt.Fprintln(w)
			}
		}
	}
	if len(s.Errors) > 0 {
		fmt.Fprintf(w, "%d cell(s) FAILED under fault injection:\n", len(s.Errors))
		for _, e := range s.Errors {
			fmt.Fprintf(w, "  %s\n", e.Error())
		}
		return
	}
	fmt.Fprintf(w, "verification: PASSED for all %d cells (faults cost time, never correctness)\n", cellCount)
}
