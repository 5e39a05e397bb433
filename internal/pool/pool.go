// Package pool provides the bounded worker pool that fans independent
// simulation runs out across host CPUs. Every experiment cell builds its
// own runtime and machine, so the only coordination a suite needs is
// "run these N independent functions on up to J workers and put each
// result back in its own slot" — which is exactly what ForEach does.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Jobs normalizes a job-count setting: zero or negative means one worker
// per host CPU, anything else is used as given.
func Jobs(jobs int) int {
	if jobs <= 0 {
		return runtime.NumCPU()
	}
	return jobs
}

// ForEach runs fn(i) for every index in [0, n) on up to jobs workers
// (after Jobs normalization) and returns once every call has finished.
// With one worker the calls run on the calling goroutine in index order,
// preserving strictly sequential behavior. fn must confine its writes to
// state owned by index i; completion order is unspecified with more than
// one worker, so callers that need deterministic output must collect into
// index-addressed slots rather than append in completion order.
func ForEach(jobs, n int, fn func(int)) {
	ForEachCtx(context.Background(), jobs, n, fn)
}

// ForEachCtx is ForEach with cancellable submission: once ctx is done, no
// new index is dispatched to a worker, in-flight fn calls are awaited, and
// the context's error is returned. fn calls that were never dispatched
// simply do not happen, so a caller that needs a value or error in every
// slot must treat "slot untouched and ForEachCtx returned non-nil" as
// cancelled (the experiments runner records ctx.Err() in those slots).
// A finished loop that dispatched every index returns nil even if ctx was
// cancelled after the last dispatch.
func ForEachCtx(ctx context.Context, jobs, n int, fn func(int)) error {
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	var err error
	for i := 0; i < n && err == nil; i++ {
		// Check first: with a worker ready, select picks at random
		// between the send and ctx.Done(), so a cancelled context could
		// still dispatch.
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	return err
}
