// Command sweep runs parameter studies around the slipstream simulator:
//
//   - a fixed-problem-size scaling study across machine sizes (the paper's
//     motivating scenario: adding CMPs stops paying once communication
//     dominates, and slipstream extends the useful range),
//   - an A–R synchronization sweep over token insertion points and counts,
//   - a synthetic-workload characterization (which execution mode wins
//     for which communication pattern),
//   - a chaos study sweeping a deterministic fault plan across injection
//     rates, printing degradation curves with verification forced on, and
//   - a tasking study running the recursive TREE task kernel over a team
//     size × cut-off grid against its worksharing-loop baseline, in both
//     single and slipstream mode, reporting steals and speedups.
//
// The flags map to a study spec (experiments.Spec) of the chosen kind,
// which goes through the same Compile and Execute as a slipd job of that
// kind, so sweep prints the bytes slipd caches. A flag the study does
// not read is refused when set.
//
// Examples:
//
//	sweep -kernel MG -study scaling -nodes 2,4,8,16
//	sweep -kernel CG -study tokens -tokens 0,1,2,4
//	sweep -kernel CG -study chaos -faults 42:0,0.01,0.05,0.2
//	sweep -study tasks -nodes 2,4,8 -cutoffs 2,4,6,8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/faults"
)

func main() {
	study, jobs, quiet, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	var progress io.Writer // nil interface = silent
	if !quiet {
		progress = os.Stderr
	}
	// Chaos and tasks print their table, which names the failing cells,
	// before the error; the exit code must still say the study failed.
	if _, _, err := study.Execute(context.Background(), jobs, os.Stdout, progress); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// parseArgs defines sweep's flags on fs, parses args, maps them to the
// spec of the chosen study and compiles it, and returns the study with
// the -jobs and -q settings. Each study flag sets one spec field, and
// only for a study that reads it: a flag left at its default is not
// mapped, and a flag set explicitly is refused. A compile error about a
// field names the flag that set it.
func parseArgs(fs *flag.FlagSet, args []string) (*experiments.Study, int, bool, error) {
	var (
		kernel    = fs.String("kernel", "MG", "benchmark: BT|CG|LU|MG|SP")
		kind      = fs.String("study", "scaling", "study to run: scaling|tokens|characterize|chaos|tasks")
		nodes     = fs.String("nodes", "2,4,8,16", "node counts for -study scaling/tasks")
		cutoffs   = fs.String("cutoffs", "2,4,6,8", "tree cut-off depths for -study tasks")
		tokens    = fs.String("tokens", "0,1,2,4", "token counts for -study tokens")
		at        = fs.Int("at", 16, "node count for -study tokens/characterize/chaos")
		scale     = fs.String("scale", "small", "problem scale: test|small|paper")
		verify    = fs.Bool("verify", true, "verify against serial references")
		jobsFlag  = fs.Int("jobs", 0, "max concurrent simulation runs (0 = one per CPU, 1 = sequential)")
		faultSpec = fs.String("faults", "42:0,0.01,0.05,0.2", "fault sweep seed:rate,...[:classes] for -study chaos")
		q         = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return nil, 0, false, err
	}
	switch *kind {
	case experiments.KindScaling, experiments.KindTokens, experiments.KindCharacterize, experiments.KindChaos, experiments.KindTasks:
	default:
		return nil, 0, false, fmt.Errorf("unknown study %q (valid: scaling|tokens|characterize|chaos|tasks)", *kind)
	}
	spec := experiments.Spec{Kind: *kind}

	// A spec reads a zero seed or node count, an empty scale and an empty
	// kernel filter as absent and runs its default instead; a flag value
	// means itself, so those spellings are refused.
	absent := func(flag, what string) error {
		return fmt.Errorf("-%s: a spec reads %s as absent and would run its default", flag, what)
	}
	fields := []struct {
		flag, field string
		set         func() error
	}{
		{"kernel", "kernel", func() error { spec.Kernel = *kernel; return nil }},
		{"kernel", "kernels", func() error {
			spec.Kernels = []string{*kernel}
			if strings.TrimSpace(*kernel) == "" {
				return absent("kernel", "an empty kernel filter")
			}
			return nil
		}},
		{"nodes", "node_counts", func() (err error) { spec.NodeCounts, err = parseInts(*nodes); return err }},
		{"cutoffs", "cutoffs", func() (err error) { spec.Cutoffs, err = parseInts(*cutoffs); return err }},
		{"tokens", "token_counts", func() (err error) { spec.TokenCounts, err = parseInts(*tokens); return err }},
		{"at", "nodes", func() error {
			if spec.Nodes = *at; *at == 0 {
				return absent("at", "nodes 0")
			}
			return nil
		}},
		{"scale", "scale", func() error {
			if spec.Scale = *scale; *scale == "" {
				return absent("scale", "an empty scale")
			}
			return nil
		}},
		{"verify", "verify", func() error { spec.Verify = verify; return nil }},
		{"faults", "faults", func() error {
			plan, rates, err := faults.ParseSweep(*faultSpec)
			if err != nil {
				return err
			}
			spec.Faults = &experiments.FaultSpec{Seed: plan.Seed, Rates: rates}
			for _, c := range plan.Classes {
				spec.Faults.Classes = append(spec.Faults.Classes, c.String())
			}
			if plan.Seed == 0 {
				return absent("faults", "seed 0")
			}
			return nil
		}},
	}
	read := map[string]bool{"study": true, "jobs": true, "q": true}
	for _, f := range fields {
		if !experiments.Reads(spec.Kind, f.field) {
			continue
		}
		read[f.flag] = true
		if err := f.set(); err != nil {
			return nil, 0, false, err
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if !read[f.Name] && err == nil {
			err = fmt.Errorf("-study %s does not read -%s", spec.Kind, f.Name)
		}
	})
	if err != nil {
		return nil, 0, false, err
	}
	study, err := experiments.Compile(spec)
	if err != nil {
		var fe *experiments.FieldError
		if errors.As(err, &fe) {
			for _, f := range fields {
				if f.field == fe.Field {
					err = fmt.Errorf("-%s: %w", f.flag, err)
					break
				}
			}
		}
		return nil, 0, false, err
	}
	return study, *jobsFlag, *q, nil
}

// parseInts splits a comma-separated count list into numbers.
// experiments.Compile checks the values, for sweep as for slipd.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("count %q is not a number", p)
		}
		out = append(out, n)
	}
	return out, nil
}
