// Command slipsim runs the slipstream-OpenMP simulator: individual
// benchmark runs under any execution mode, or the paper's full experiments
// (Figures 2–5, Tables 1–2).
//
// Examples:
//
//	slipsim -experiment all                 # regenerate every table/figure
//	slipsim -experiment fig2 -scale paper   # static-scheduling figure
//	slipsim -kernel CG -mode slipstream -sync LOCAL_SYNC -tokens 1
//	slipsim -kernel MG -mode slipstream -env GLOBAL_SYNC,0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/synth"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run: fig2|fig3|fig4|fig5|table1|table2|all")
		kernel     = flag.String("kernel", "", "single benchmark to run: BT|CG|LU|MG|SP (or extensions EP|FT|IS)")
		workload   = flag.String("workload", "", "synthetic workload to run: stream|exchange|gather|migrate|lockstep|taskfarm")
		mode       = flag.String("mode", "slipstream", "execution mode: single|double|slipstream")
		sync       = flag.String("sync", "GLOBAL_SYNC", "A-R synchronization: GLOBAL_SYNC|LOCAL_SYNC|NONE")
		tokens     = flag.Int("tokens", 0, "initial token count")
		env        = flag.String("env", "", "OMP_SLIPSTREAM value (overrides -sync/-tokens)")
		sched      = flag.String("sched", "static", "loop schedule: static|dynamic|guided")
		chunk      = flag.Int("chunk", 0, "dynamic/guided chunk size (0 = benchmark default)")
		nodes      = flag.Int("nodes", 16, "number of dual-processor CMP nodes")
		scale      = flag.String("scale", "paper", "problem scale: test|small|paper")
		selfinv    = flag.Bool("selfinv", false, "enable A-stream self-invalidation hints")
		verify     = flag.Bool("verify", true, "verify results against the serial reference")
		kernels    = flag.String("kernels", "", "comma-separated kernel filter for experiments")
		traceN     = flag.Int("trace", 0, "dump the last N simulation events after a single run")
		csvPath    = flag.String("csv", "", "also write experiment results to a CSV file")
		jsonOut    = flag.Bool("json", false, "print a JSON snapshot after a single run")
		topology   = flag.String("topology", "fixed", "interconnect: fixed|mesh")
		jobs       = flag.Int("jobs", 0, "max concurrent simulation runs (0 = one per CPU, 1 = sequential)")
		faultSpec  = flag.String("faults", "", "deterministic fault plan seed:rate[:classes] for -kernel/-workload runs")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	var faultPlan *faults.Config
	if *faultSpec != "" {
		fc, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		faultPlan = &fc
	}

	sc, err := npb.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opts := experiments.DefaultOptions()
	opts.Nodes = *nodes
	opts.Scale = sc
	opts.SelfInvalidate = *selfinv
	opts.Verify = *verify
	opts.Jobs = *jobs
	if *kernels != "" {
		opts.Kernels = strings.Split(*kernels, ",")
	}

	switch {
	case *experiment != "":
		if faultPlan != nil {
			fatal(errors.New("-faults applies to -kernel/-workload runs; use sweep -study chaos for fault-rate sweeps"))
		}
		if err := runExperiment(*experiment, opts, *csvPath, *quiet); err != nil {
			fatal(err)
		}
	case *kernel != "":
		if err := runSingle(*kernel, *mode, *sync, *tokens, *env, *sched, *chunk, *traceN, *topology, *jsonOut, faultPlan, opts); err != nil {
			fatal(err)
		}
	case *workload != "":
		if err := runWorkload(*workload, *mode, *sync, *tokens, *sched, *chunk, faultPlan, opts); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slipsim:", err)
	os.Exit(1)
}

func runExperiment(name string, opts experiments.Options, csvPath string, quiet bool) error {
	out := os.Stdout
	var progress io.Writer // nil interface = silent
	if !quiet {
		progress = os.Stderr
	}
	needStatic := false
	needDynamic := false
	switch name {
	case "fig2", "fig3":
		needStatic = true
	case "fig4", "fig5":
		needDynamic = true
	case "table1":
		experiments.Table1(opts, out)
		return nil
	case "table2":
		return experiments.Table2(opts, out)
	case "all":
		needStatic, needDynamic = true, true
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}

	var static, dynamic *experiments.Suite
	var err error
	if needStatic {
		if static, err = experiments.RunStatic(opts, progress); err != nil {
			return err
		}
	}
	if needDynamic {
		if dynamic, err = experiments.RunDynamicCtx(context.Background(), opts, progress); err != nil {
			return err
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if static != nil {
			if err := static.WriteCSV(f); err != nil {
				return err
			}
		}
		if dynamic != nil {
			if err := dynamic.WriteCSV(f); err != nil {
				return err
			}
		}
	}
	switch name {
	case "fig2":
		static.Fig2(out)
	case "fig3":
		static.Fig3(out)
	case "fig4":
		dynamic.Fig4(out)
	case "fig5":
		dynamic.Fig5(out)
	case "all":
		experiments.Table1(opts, out)
		fmt.Fprintln(out)
		if err := experiments.Table2(opts, out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		static.Fig2(out)
		static.Fig3(out)
		dynamic.Fig4(out)
		dynamic.Fig5(out)
	}
	// Failed cells don't abort the suite — the surviving cells rendered
	// above — but they must not pass silently either: name each one and
	// exit non-zero.
	var failed []experiments.CellError
	if static != nil {
		failed = append(failed, static.Errors...)
	}
	if dynamic != nil {
		failed = append(failed, dynamic.Errors...)
	}
	if len(failed) > 0 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d run(s) failed:", len(failed))
		for _, e := range failed {
			fmt.Fprintf(&sb, "\n  %s", e.Error())
		}
		return errors.New(sb.String())
	}
	return nil
}

func runSingle(kernel, mode, sync string, tokens int, env, sched string, chunk, traceN int, topology string, jsonOut bool, faultPlan *faults.Config, opts experiments.Options) error {
	k, err := npb.ByName(strings.ToUpper(kernel))
	if err != nil {
		return err
	}
	p := machine.DefaultParams()
	p.Nodes = opts.Nodes
	p.TraceCap = traceN
	switch strings.ToLower(topology) {
	case "fixed":
	case "mesh":
		p.Topology = machine.TopoMesh2D
	default:
		return fmt.Errorf("unknown topology %q", topology)
	}

	cfg := omp.Config{Machine: p, Env: env, SelfInvalidate: opts.SelfInvalidate, Faults: faultPlan}
	if cfg.Mode, err = experiments.ParseMode(mode); err != nil {
		return err
	}
	if cfg.Slipstream, err = experiments.ParseSync(sync, tokens); err != nil {
		return err
	}
	if cfg.Sched, err = experiments.ParseSched(sched); err != nil {
		return err
	}
	cfg.Chunk = chunk
	if chunk == 0 && cfg.Sched != omp.Static {
		cfg.Chunk = k.ChunkFor(opts.Scale, p.Nodes)
	}

	name := fmt.Sprintf("%s/%s/%s", mode, sched, cfg.Slipstream)
	rt, err := omp.New(cfg)
	if err != nil {
		return err
	}
	inst := k.Build(rt, opts.Scale)
	if err := rt.Run(inst.Program); err != nil {
		return err
	}
	if opts.Verify {
		if err := inst.Verify(); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
	}
	r := experiments.Result{
		Kernel:     k.Name,
		Config:     name,
		Size:       inst.Size,
		Wall:       rt.M.WallTime(),
		Breakdown:  rt.M.TotalBreakdown(),
		Class:      rt.M.Class,
		Recoveries: rt.SS.Recoveries(),
	}
	fmt.Printf("%s %s\n", r.Kernel, r.Size)
	fmt.Printf("config:     %s\n", r.Config)
	if inst.Norm != nil {
		fmt.Printf("result norm: %.10e\n", inst.Norm())
	}
	fmt.Printf("cycles:     %d (%.3f ms simulated at %.1f GHz)\n",
		r.Wall, float64(r.Wall)/(p.ClockGHz*1e6), p.ClockGHz)
	fmt.Printf("breakdown:  %s\n", r.Breakdown.String())
	if faultPlan != nil {
		fmt.Printf("faults:     %d injected (%s)\n", rt.FaultsInjected(), rt.Faults().Summary())
	}
	if cfg.Mode == core.ModeSlipstream {
		fmt.Printf("recoveries: %d\nshared-request classification:\n%s\n", r.Recoveries, r.Class.String())
	}
	if opts.Verify {
		fmt.Println("verification: PASSED (matches serial reference)")
	}
	fmt.Printf("protocol:   %s\n", rt.M.Proto.String())
	if jsonOut {
		if err := rt.M.TakeSnapshot(true).WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if traceN > 0 {
		if err := rt.M.Trace.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload executes a synthetic workload in one configuration.
func runWorkload(name, mode, sync string, tokens int, sched string, chunk int, faultPlan *faults.Config, opts experiments.Options) error {
	p := machine.DefaultParams()
	p.Nodes = opts.Nodes
	cfg := omp.Config{Machine: p, Chunk: chunk, Faults: faultPlan}
	var err error
	if cfg.Mode, err = experiments.ParseMode(mode); err != nil {
		return err
	}
	if cfg.Slipstream, err = experiments.ParseSync(sync, tokens); err != nil {
		return err
	}
	if cfg.Sched, err = experiments.ParseSched(sched); err != nil {
		return err
	}
	rt, err := omp.New(cfg)
	if err != nil {
		return err
	}
	w, err := synth.Build(name, rt, synth.DefaultParams())
	if err != nil {
		return err
	}
	if err := rt.Run(w.Program); err != nil {
		return err
	}
	if opts.Verify {
		if err := w.Verify(); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
	}
	bd := rt.M.TotalBreakdown()
	fmt.Printf("%s: %s\n", w.Name, w.Desc)
	fmt.Printf("cycles:     %d\n", rt.M.WallTime())
	fmt.Printf("breakdown:  %s\n", bd.String())
	if faultPlan != nil {
		fmt.Printf("faults:     %d injected (%s)\n", rt.FaultsInjected(), rt.Faults().Summary())
	}
	if cfg.Mode == core.ModeSlipstream {
		fmt.Printf("classification:\n%s\n", rt.M.Class.String())
	}
	if opts.Verify {
		fmt.Println("verification: PASSED")
	}
	return nil
}
