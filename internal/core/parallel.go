package core

import (
	"repro/internal/par"
)

// DefaultWorkers returns the worker count used when a BuildOptions
// value leaves Workers at zero: runtime.GOMAXPROCS(0), i.e. one worker
// per schedulable CPU.
func DefaultWorkers() int { return par.Default() }

// BuildOptions tunes locator construction.
type BuildOptions struct {
	// Workers is the number of goroutines used to build the
	// per-station QDS structures. Zero means DefaultWorkers(); one
	// forces the serial build. The result is identical for every
	// setting — per-station builds are independent and each lands in
	// its own slot of the locator.
	Workers int

	// NoSpatialIndex skips building the sharded spatial index over
	// the per-station cover boxes. The zero value builds it (the
	// index is on by default): queries are answer-identical with and
	// without it, so the index-free build serves only as the reference
	// path of the property tests and of BenchmarkLocateNoIndex.
	NoSpatialIndex bool
}

// parallelForErr runs fn(i) for every i in [0, n) across the given
// number of workers and returns the error of the lowest index that
// failed — the same error a serial left-to-right loop would surface,
// so the parallel and serial builds are indistinguishable to callers
// even on failure.
func parallelForErr(n, workers int, fn func(i int) error) error {
	if par.Norm(workers, n) == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	par.Chunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = fn(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
