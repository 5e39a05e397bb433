// Package experiments regenerates the paper's evaluation: Figures 2–5 and
// Tables 1–2 (§5). Each figure is derived from a suite of simulator runs —
// the cross product of benchmark × execution mode × A–R synchronization —
// and rendered as aligned text tables with the same series the paper
// plots.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configure an experiment suite.
type Options struct {
	Nodes          int       // CMP count (paper: 16)
	Scale          npb.Scale // problem scale (paper figures: ScalePaper)
	Kernels        []string  // subset filter; empty = all
	SelfInvalidate bool      // enable the self-invalidation optimization
	Verify         bool      // check results against serial references
	Jobs           int       // max concurrent runs: 0 = one per host CPU, 1 = sequential
	Params         *machine.Params
}

// DefaultOptions returns the paper's 16-CMP configuration.
func DefaultOptions() Options {
	return Options{Nodes: 16, Scale: npb.ScalePaper, Verify: true}
}

func (o Options) params() machine.Params {
	p := machine.DefaultParams()
	if o.Params != nil {
		p = *o.Params
	}
	if o.Nodes > 0 {
		p.Nodes = o.Nodes
	}
	return p
}

// kernels resolves the kernel filter (see normalizeKernels) to the
// kernels it selects, in report order.
func (o Options) kernels() ([]npb.Kernel, error) {
	names, err := normalizeKernels(o.Kernels)
	if err != nil {
		return nil, err
	}
	ks := npb.Kernels()
	if len(names) == 0 {
		return ks, nil
	}
	return slices.DeleteFunc(ks, func(k npb.Kernel) bool { return !slices.Contains(names, k.Name) }), nil
}

// Result is one simulator run's measurements.
type Result struct {
	Kernel     string
	Config     string
	Size       string
	Wall       uint64
	Breakdown  stats.Breakdown
	Class      stats.Class
	Recoveries uint64
	Faults     uint64       // faults injected by the run's plan (0 when unarmed)
	TasksRun   uint64       // explicit tasks executed (0 for non-tasking kernels)
	Steals     uint64       // task deque steals (0 for non-tasking kernels)
	Engine     sim.Counters // engine events, switches and spin steps (benchmarks report them; no figure does)
}

// runConfig names one execution configuration of the suite.
type runConfig struct {
	name string
	cfg  omp.Config
}

// staticConfigs are the Figure 2/3 configurations.
func staticConfigs(p machine.Params, selfInv bool) []runConfig {
	return []runConfig{
		{"single", omp.Config{Machine: p, Mode: core.ModeSingle}},
		{"double", omp.Config{Machine: p, Mode: core.ModeDouble}},
		{"slip-G0", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, SelfInvalidate: selfInv}},
		{"slip-L1", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.L1}},
	}
}

// dynamicConfigs are the Figure 4/5 configurations: one task per CMP only,
// zero-token global for slipstream (the scheduling handoff makes other
// synchronizations converge to it, §5.2).
func dynamicConfigs(p machine.Params, chunk int) []runConfig {
	return []runConfig{
		{"single-dyn", omp.Config{Machine: p, Mode: core.ModeSingle, Sched: omp.Dynamic, Chunk: chunk}},
		{"slip-G0-dyn", omp.Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.G0, Sched: omp.Dynamic, Chunk: chunk}},
	}
}

// RunOne executes kernel k under cfg at the given scale.
func RunOne(k npb.Kernel, name string, cfg omp.Config, scale npb.Scale, verify bool) (Result, error) {
	rt, err := omp.New(cfg)
	if err != nil {
		return Result{}, err
	}
	inst := k.Build(rt, scale)
	if err := rt.Run(inst.Program); err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", k.Name, name, err)
	}
	if verify {
		if err := inst.Verify(); err != nil {
			return Result{}, fmt.Errorf("%s/%s: verification: %w", k.Name, name, err)
		}
	}
	return Result{
		Kernel:     k.Name,
		Config:     name,
		Size:       inst.Size,
		Wall:       rt.M.WallTime(),
		Breakdown:  rt.M.TotalBreakdown(),
		Class:      rt.M.Class,
		Recoveries: rt.SS.Recoveries(),
		Faults:     rt.FaultsInjected(),
		TasksRun:   rt.TasksExecuted(),
		Steals:     rt.TaskSteals(),
		Engine:     rt.M.Eng.Counters(),
	}, nil
}

// Suite holds the results of the static and dynamic run matrices. Cells
// that failed to run or verify are absent from the result maps and
// recorded in Errors with their kernel/config identity.
type Suite struct {
	Opts    Options
	Static  map[string]map[string]Result // kernel → config → result
	Dynamic map[string]map[string]Result
	Errors  []CellError // failed cells, in matrix order
}

// Err returns the suite's per-cell failures joined into one error, or nil
// if every run succeeded.
func (s *Suite) Err() error {
	if s == nil {
		return nil
	}
	return joinCellErrors(s.Errors)
}

// RunStatic executes the static-scheduling matrix (Figures 2 and 3) on up
// to o.Jobs concurrent workers. A failing cell does not abort the matrix:
// it is recorded in Suite.Errors and the other cells complete. The
// returned error is non-nil only for configuration problems (e.g. an
// unknown kernel name).
func RunStatic(o Options, progress io.Writer) (*Suite, error) {
	return RunStaticCtx(context.Background(), o, progress)
}

// RunStaticCtx is RunStatic with cancellation: once ctx is done the
// remaining cells are aborted promptly and recorded in Suite.Errors with
// the context's error, so callers get the partial matrix that did run.
func RunStaticCtx(ctx context.Context, o Options, progress io.Writer) (*Suite, error) {
	ks, err := o.kernels()
	if err != nil {
		return nil, err
	}
	s := &Suite{Opts: o, Static: map[string]map[string]Result{}}
	p := o.params()
	var cells []matrixCell
	for _, k := range ks {
		s.Static[k.Name] = map[string]Result{}
		for _, rc := range staticConfigs(p, o.SelfInvalidate) {
			cells = append(cells, matrixCell{kernel: k, rc: rc})
		}
	}
	results, errs := runCells(ctx, cells, o.Jobs, o, "static", progress)
	for i, c := range cells {
		if errs[i] != nil {
			s.Errors = append(s.Errors, CellError{Kernel: c.kernel.Name, Config: c.rc.name, Err: errs[i]})
			continue
		}
		s.Static[c.kernel.Name][c.rc.name] = results[i]
	}
	return s, nil
}

// RunDynamicCtx executes the dynamic-scheduling matrix (Figures 4 and 5)
// on up to o.Jobs concurrent workers, with the same per-cell error
// handling and partial-result semantics as RunStaticCtx. LU is excluded:
// it specifies static scheduling programmatically (§5.2).
func RunDynamicCtx(ctx context.Context, o Options, progress io.Writer) (*Suite, error) {
	ks, err := o.kernels()
	if err != nil {
		return nil, err
	}
	s := &Suite{Opts: o, Dynamic: map[string]map[string]Result{}}
	p := o.params()
	var cells []matrixCell
	for _, k := range ks {
		if !k.Dynamic {
			continue
		}
		chunk := k.ChunkFor(o.Scale, p.Nodes)
		s.Dynamic[k.Name] = map[string]Result{}
		for _, rc := range dynamicConfigs(p, chunk) {
			cells = append(cells, matrixCell{kernel: k, rc: rc})
		}
	}
	results, errs := runCells(ctx, cells, o.Jobs, o, "dynamic", progress)
	for i, c := range cells {
		if errs[i] != nil {
			s.Errors = append(s.Errors, CellError{Kernel: c.kernel.Name, Config: c.rc.name, Err: errs[i]})
			continue
		}
		s.Dynamic[c.kernel.Name][c.rc.name] = results[i]
	}
	return s, nil
}

// sortedKernels returns the kernel names of a result map in report order.
func sortedKernels(m map[string]map[string]Result) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fig2 renders the static-scheduling speedups (normalized to single mode)
// and execution-time breakdowns — the paper's Figure 2. Kernels whose
// single-mode baseline is missing (filtered out or failed) render their
// cycle counts with "n/a" speedups and an explanatory note instead of
// dividing by a zero-value cell.
func (s *Suite) Fig2(w io.Writer) {
	fmt.Fprintln(w, "Figure 2: slipstream and double-mode performance over single mode (static scheduling)")
	fmt.Fprintf(w, "%-4s %-9s %10s %8s  %s\n", "app", "config", "cycles", "speedup", "time breakdown")
	for _, name := range sortedKernels(s.Static) {
		rs := s.Static[name]
		base, haveBase := rs["single"]
		for _, cfg := range []string{"single", "double", "slip-G0", "slip-L1"} {
			r, ok := rs[cfg]
			if !ok {
				continue
			}
			if haveBase && base.Wall > 0 && r.Wall > 0 {
				fmt.Fprintf(w, "%-4s %-9s %10d %8.3f  %s\n",
					name, cfg, r.Wall, float64(base.Wall)/float64(r.Wall), r.Breakdown.String())
			} else {
				fmt.Fprintf(w, "%-4s %-9s %10d %8s  %s\n",
					name, cfg, r.Wall, "n/a", r.Breakdown.String())
			}
		}
		best := minWall(rs, "slip-G0", "slip-L1")
		bestBase := minWall(rs, "single", "double")
		if !haveBase || best == noWall || bestBase == noWall {
			fmt.Fprintf(w, "%-4s note: baseline missing (filtered or failed run); speedups n/a\n\n", name)
			continue
		}
		fmt.Fprintf(w, "%-4s best slipstream vs best(single,double): %+.1f%%\n\n",
			name, 100*(float64(bestBase)/float64(best)-1))
	}
}

// Fig3 renders the shared-data memory request classification under static
// scheduling for the two A–R synchronizations — the paper's Figure 3.
func (s *Suite) Fig3(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: breakdown of shared-data memory requests (static scheduling)")
	for _, name := range sortedKernels(s.Static) {
		for _, cfg := range []string{"slip-L1", "slip-G0"} {
			r, ok := s.Static[name][cfg]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-4s %-8s\n%s\n", name, cfg, classTable(&r.Class))
		}
	}
	fmt.Fprintln(w)
}

// Fig4 renders the dynamic-scheduling execution-time breakdowns — the
// paper's Figure 4 (base = one task/CMP with dynamic scheduling).
func (s *Suite) Fig4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: execution time breakdown with dynamic scheduling (vs one task/CMP)")
	fmt.Fprintf(w, "%-4s %-12s %10s %8s  %s\n", "app", "config", "cycles", "speedup", "time breakdown")
	for _, name := range sortedKernels(s.Dynamic) {
		rs := s.Dynamic[name]
		base, haveBase := rs["single-dyn"]
		for _, cfg := range []string{"single-dyn", "slip-G0-dyn"} {
			r, ok := rs[cfg]
			if !ok {
				continue
			}
			if haveBase && base.Wall > 0 && r.Wall > 0 {
				fmt.Fprintf(w, "%-4s %-12s %10d %8.3f  %s\n",
					name, cfg, r.Wall, float64(base.Wall)/float64(r.Wall), r.Breakdown.String())
			} else {
				fmt.Fprintf(w, "%-4s %-12s %10d %8s  %s\n",
					name, cfg, r.Wall, "n/a", r.Breakdown.String())
			}
		}
		if !haveBase {
			fmt.Fprintf(w, "%-4s note: single-dyn baseline missing (filtered or failed run); speedups n/a\n", name)
		}
	}
	fmt.Fprintln(w)
}

// Fig5 renders the request classification under dynamic scheduling — the
// paper's Figure 5.
func (s *Suite) Fig5(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: breakdown of shared-data memory requests (dynamic scheduling, slipstream G0)")
	for _, name := range sortedKernels(s.Dynamic) {
		r, ok := s.Dynamic[name]["slip-G0-dyn"]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-4s\n%s\n", name, classTable(&r.Class))
	}
	fmt.Fprintln(w)
}

// classTable renders one classification as two rows of percentage shares.
func classTable(c *stats.Class) string {
	var sb strings.Builder
	for k := stats.ReqRead; k < stats.NumKinds; k++ {
		fmt.Fprintf(&sb, "  %-7s (n=%7d)", k, c.KindTotal(k))
		for _, r := range []stats.Role{stats.RoleA, stats.RoleR} {
			for o := stats.OutTimely; o < stats.NumOutcomes; o++ {
				fmt.Fprintf(&sb, "  %s-%s %5.1f%%", r, o, 100*c.Share(r, k, o))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table1 renders the simulated system parameters.
func Table1(o Options, w io.Writer) {
	fmt.Fprint(w, o.params().Table1())
}

// Table2 renders the benchmark list with the instantiated problem sizes.
func Table2(o Options, w io.Writer) error {
	fmt.Fprintln(w, "Table 2: benchmarks (OpenMP-style ports of NPB 2.3 kernels, reduced sizes)")
	ks, err := o.kernels()
	if err != nil {
		return err
	}
	p := o.params()
	p.Nodes = 2 // tiny machine: only the instance metadata is needed
	for _, k := range ks {
		rt, err := omp.New(omp.Config{Machine: p, Mode: core.ModeSingle})
		if err != nil {
			return err
		}
		inst := k.Build(rt, o.Scale)
		dyn := "static+dynamic"
		if !k.Dynamic {
			dyn = "static only (hard-coded static scheduling)"
		}
		fmt.Fprintf(w, "  %-3s %-38s %s\n", k.Name, inst.Size, dyn)
	}
	return nil
}

// noWall is minWall's sentinel for "no named config present".
const noWall = ^uint64(0)

// minWall returns the smallest wall time among the named configs, or
// noWall if none of them is present.
func minWall(rs map[string]Result, names ...string) uint64 {
	best := noWall
	for _, n := range names {
		if r, ok := rs[n]; ok && r.Wall < best {
			best = r.Wall
		}
	}
	return best
}
