// Command clustersim sweeps seeded cluster simulation schedules and
// fails loudly on the first invariant violation. Every schedule —
// crashes, partitions, message loss, clock skew — derives from its
// seed, so a red seed reproduces exactly:
//
//	go run ./tools/clustersim -start 4171 -seeds 1 -v
//
// The default sweep is sized for CI; -seeds/-parallel scale it up for
// soak runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/netchaos"
	"repro/internal/cluster/simtest"
)

func main() {
	var (
		start    = flag.Uint64("start", 1, "first seed")
		seeds    = flag.Uint64("seeds", 500, "number of consecutive seeds to run")
		coords   = flag.Int("coordinators", 3, "coordinators per schedule")
		workers  = flag.Int("workers", 3, "workers per schedule")
		jobs     = flag.Int("jobs", 10, "jobs submitted per schedule")
		horizon  = flag.Duration("horizon", 400*time.Millisecond, "scripted portion of each schedule")
		settle   = flag.Duration("settle", 15*time.Second, "convergence deadline after the horizon")
		chaosStr = flag.String("chaos", "", "chaos spec override (drop=0.05,delay=0.1:1ms:8ms,dup=0.02,reorder=0.03,skew=20ms); default simtest.DefaultChaos")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "schedules in flight at once")
		verbose  = flag.Bool("v", false, "per-seed progress lines")
	)
	flag.Parse()

	var spec netchaos.Spec
	if *chaosStr != "" {
		s, err := netchaos.ParseSpec(*chaosStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clustersim: bad -chaos: %v\n", err)
			os.Exit(2)
		}
		spec = s
	} else {
		spec = simtest.DefaultChaos()
	}

	type failure struct {
		seed       uint64
		violations []string
	}
	var (
		mu       sync.Mutex
		failures []failure
		done     atomic.Uint64
		injected atomic.Uint64
		expired  atomic.Uint64
		granted  atomic.Uint64
		dups     atomic.Uint64
		falls    atomic.Uint64
	)

	t0 := time.Now()
	sem := make(chan struct{}, max(1, *parallel))
	var wg sync.WaitGroup
	for i := uint64(0); i < *seeds; i++ {
		seed := *start + i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rep, err := simtest.Run(simtest.Options{
				Seed:          seed,
				Coordinators:  *coords,
				Workers:       *workers,
				Jobs:          *jobs,
				Chaos:         spec,
				Horizon:       *horizon,
				SettleTimeout: *settle,
			})
			if err != nil {
				mu.Lock()
				failures = append(failures, failure{seed, []string{"harness error: " + err.Error()}})
				mu.Unlock()
				return
			}
			injected.Add(rep.ChaosInjected)
			expired.Add(rep.Expirations)
			granted.Add(rep.Granted)
			dups.Add(rep.Duplicates)
			falls.Add(rep.Fallbacks)
			if !rep.OK() {
				mu.Lock()
				failures = append(failures, failure{seed, rep.Violations})
				mu.Unlock()
			}
			n := done.Add(1)
			if *verbose || n%50 == 0 {
				fmt.Printf("clustersim: %d/%d schedules (seed %d: %d faults, %d grants, %d fallbacks, ok=%v)\n",
					n, *seeds, seed, rep.ChaosInjected, rep.Granted, rep.Fallbacks, rep.OK())
			}
		}()
	}
	wg.Wait()

	fmt.Printf("clustersim: %d schedules in %v — %d faults injected, %d claims granted, %d lease expirations, %d duplicate reports, %d fallbacks (dispatches run locally for want of a visible worker)\n",
		*seeds, time.Since(t0).Round(time.Millisecond), injected.Load(), granted.Load(), expired.Load(), dups.Load(), falls.Load())
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "clustersim: seed %d FAILED — reproduce with: go run ./tools/clustersim -start %d -seeds 1 -v\n", f.seed, f.seed)
			for _, v := range f.violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
		}
		fmt.Fprintf(os.Stderr, "clustersim: %d of %d seeds violated invariants\n", len(failures), *seeds)
		os.Exit(1)
	}
	if *seeds > 0 && injected.Load() == 0 && spec.Active() {
		fmt.Fprintln(os.Stderr, "clustersim: an active chaos spec injected zero faults across the sweep; the layer is inert")
		os.Exit(1)
	}
	fmt.Println("clustersim: all seeds held every invariant")
}
