// Package par is the worker-pool primitive behind the parallel sweep
// runners: it fans independent jobs across a bounded number of goroutines
// while keeping results (and error selection) deterministic, so a parallel
// sweep reports exactly what its sequential counterpart would. Sweeps are
// cancellable: a context threads through Map and stops the fan-out between
// jobs.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values < 1 mean "one worker per
// available CPU" (GOMAXPROCS), and the count never exceeds the job
// count.
func Workers(workers, jobs int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs job(0..n-1) across the given number of workers and returns the
// results in index order. Every job runs exactly once even when some fail;
// if any jobs error, the error of the lowest-indexed failing job is
// returned — the same error a sequential left-to-right runner would have
// hit first (modulo early exit), keeping parallel runs report-identical to
// sequential ones. workers < 1 selects one worker per CPU; workers == 1
// runs inline with no goroutines.
//
// Cancelling ctx stops the fan-out between jobs: running jobs finish,
// remaining jobs never start, and Map returns ctx.Err() (job errors from
// jobs that did run take precedence, preserving the sequential-equivalence
// rule). A nil ctx means context.Background().
func Map[T any](ctx context.Context, workers, n int, job func(i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			r, err := job(i)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = job(i)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	// Cancellation that arrives after the last job has finished skipped
	// nothing: the results are complete, exactly as the sequential path
	// would have returned them (parallel-identical-to-sequential rule).
	if completed.Load() < int64(n) {
		return results, ctx.Err()
	}
	return results, nil
}
