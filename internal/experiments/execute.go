package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/omp"
	"repro/internal/synth"
)

// Execute runs the study on up to jobs concurrent simulations (0 = one
// per host CPU) and renders it to w: the bytes slipd caches and the
// sweep CLI prints. Rendering is fully deterministic (matrix-order
// collection, sorted kernels, fixed config order), which is what lets a
// cache serve these bytes as if the run had happened. It returns the
// faults injected and the recoveries made across the cells of a
// plan-armed study, kinds run and chaos; other kinds return zeros.
//
// A failed cell fails the study. Chaos and tasks still render their
// table, which names the failed cells, before returning the error; the
// other kinds render nothing.
func (st *Study) Execute(ctx context.Context, jobs int, w, progress io.Writer) (injected, recoveries uint64, err error) {
	// A context already dead (job timeout, shutdown) fails every kind up
	// front — including single runs, which cannot observe cancellation
	// mid-simulation.
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	n := &st.Spec
	o := st.opts
	o.Jobs = jobs

	switch n.Kind {
	case KindRun:
		return st.executeRun(w)

	case KindStatic:
		suite, err := RunStaticCtx(ctx, o, progress)
		if err == nil {
			err = suite.Err()
		}
		if err != nil {
			return 0, 0, err
		}
		suite.Fig2(w)
		suite.Fig3(w)

	case KindDynamic:
		suite, err := RunDynamicCtx(ctx, o, progress)
		if err == nil {
			err = suite.Err()
		}
		if err != nil {
			return 0, 0, err
		}
		suite.Fig4(w)
		suite.Fig5(w)

	case KindScaling:
		rows, err := RunScalingCtx(ctx, n.Kernel, n.NodeCounts, o.Scale, jobs, o.Verify, progress)
		if err != nil {
			return 0, 0, err
		}
		PrintScaling(n.Kernel, rows, w)

	case KindTokens:
		rows, err := RunTokenSweepCtx(ctx, n.Kernel, n.Nodes, o.Scale, n.TokenCounts, jobs, o.Verify, progress)
		if err != nil {
			return 0, 0, err
		}
		PrintTokenSweep(n.Kernel, rows, w)

	case KindCharacterize:
		rows, err := CharacterizeCtx(ctx, n.Nodes, synth.DefaultParams(), jobs, progress)
		if err != nil {
			return 0, 0, err
		}
		PrintCharacterization(rows, w)

	case KindChaos:
		suite, err := RunChaosCtx(ctx, o, *st.faults, n.Faults.Rates, progress)
		if err != nil {
			return 0, 0, err
		}
		suite.Curves(w)
		injected, recoveries = suite.Totals()
		return injected, recoveries, suite.Err()

	case KindTasks:
		suite, err := RunTasksCtx(ctx, o, n.NodeCounts, n.Cutoffs, progress)
		if err != nil {
			return 0, 0, err
		}
		suite.Table(w)
		return 0, 0, suite.Err()
	}
	return 0, 0, nil
}

// executeRun performs a single kernel run. A single cell cannot be
// usefully interrupted mid-simulation (cancellation is observed between
// cells everywhere else), so it takes no context.
func (st *Study) executeRun(w io.Writer) (injected, recoveries uint64, err error) {
	n := &st.Spec
	k, err := npb.ByName(n.Kernel)
	if err != nil {
		return 0, 0, err
	}
	cfg := omp.Config{
		Machine:        *st.opts.Params,
		Mode:           st.mode,
		Slipstream:     st.sync,
		SelfInvalidate: n.SelfInvalidate,
		Sched:          st.sched,
		Chunk:          n.Chunk,
		Faults:         st.faults,
	}
	if cfg.Chunk == 0 && cfg.Sched != omp.Static {
		cfg.Chunk = k.ChunkFor(st.opts.Scale, cfg.Machine.Nodes)
	}
	name := fmt.Sprintf("%s/%s/%s", n.Mode, n.Sched, cfg.Slipstream)
	r, err := RunOne(k, name, cfg, st.opts.Scale, st.opts.Verify)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(w, "%s %s\n", r.Kernel, r.Size)
	fmt.Fprintf(w, "config:     %s\n", r.Config)
	fmt.Fprintf(w, "cycles:     %d (%.3f ms simulated at %.1f GHz)\n",
		r.Wall, float64(r.Wall)/(cfg.Machine.ClockGHz*1e6), cfg.Machine.ClockGHz)
	fmt.Fprintf(w, "breakdown:  %s\n", r.Breakdown.String())
	if cfg.Faults != nil {
		injected, recoveries = r.Faults, r.Recoveries
		fmt.Fprintf(w, "faults:     %d injected (plan %s)\n", r.Faults, cfg.Faults.String())
	}
	if cfg.Mode == core.ModeSlipstream {
		fmt.Fprintf(w, "recoveries: %d\nshared-request classification:\n%s\n", r.Recoveries, r.Class.String())
	}
	if st.opts.Verify {
		fmt.Fprintln(w, "verification: PASSED (matches serial reference)")
	}
	return injected, recoveries, nil
}
