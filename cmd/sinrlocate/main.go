// Command sinrlocate demonstrates the Theorem 3 point-location data
// structure end to end: generate a random uniform power network, build
// the locator, answer a batch of queries three ways (naive scan,
// Voronoi candidate, DS), and report agreement and timing.
//
// Usage:
//
//	sinrlocate [-n 64] [-eps 0.1] [-queries 100000] [-seed 1] [-beta 3] [-noise 0.01] [-workers 0]
//
// -workers sets the worker-pool size for the parallel locator build
// and the batch query pass (0 = one per CPU, 1 = serial).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/par"
	"repro/internal/resolve"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 64, "number of stations")
	eps := flag.Float64("eps", 0.1, "Theorem 3 performance parameter")
	queries := flag.Int("queries", 100000, "number of random queries")
	seed := flag.Int64("seed", 1, "deployment seed")
	beta := flag.Float64("beta", 3, "reception threshold")
	noise := flag.Float64("noise", 0.01, "background noise")
	workers := flag.Int("workers", 0, "worker pool size for build and batch queries (0 = NumCPU, 1 = serial)")
	flag.Parse()

	if err := run(*n, *eps, *queries, *seed, *beta, *noise, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "sinrlocate:", err)
		os.Exit(1)
	}
}

func run(n int, eps float64, queries int, seed int64, beta, noise float64, workers int) error {
	gen := workload.NewGenerator(seed)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	pts, err := gen.UniformSeparated(n, box, 0.05)
	if err != nil {
		return err
	}
	net, err := core.NewUniform(pts, noise, beta)
	if err != nil {
		return err
	}
	fmt.Printf("network: %v\n", net)

	// Without exact fallback the resolver's batch answers the same
	// approximate question as the single-point Locate loop below.
	res, err := resolve.NewLocator(net, resolve.WithEpsilon(eps),
		resolve.WithWorkers(workers), resolve.WithExactFallback(false))
	if err != nil {
		return err
	}
	loc := res.Locator()
	fmt.Printf("locator: built in %v with %d workers, %d uncertain cells across %d stations (eps=%v)\n",
		res.Stats().BuildCost.Round(time.Millisecond), par.Norm(workers, n), loc.NumUncertainCells(), n, eps)

	qbox := box.Expand(1)
	qs := gen.QueryPoints(queries, qbox)
	tree := kdtree.New(net.Stations())

	// Run all three algorithms and cross-check.
	var counts [3]int // reception, none, uncertain
	start := time.Now()
	for _, p := range qs {
		switch loc.Locate(p).Kind {
		case core.Reception:
			counts[0]++
		case core.NoReception:
			counts[1]++
		default:
			counts[2]++
		}
	}
	dsTime := time.Since(start)

	batch := make([]core.Location, len(qs))
	start = time.Now()
	if err := res.ResolveBatch(context.Background(), qs, batch); err != nil {
		return err
	}
	batchTime := time.Since(start)
	for i, p := range qs {
		if batch[i] != loc.Locate(p) {
			return fmt.Errorf("batch answer diverged from single-point Locate at query %d", i)
		}
	}

	start = time.Now()
	for _, p := range qs {
		net.VoronoiLocate(p, tree)
	}
	voroTime := time.Since(start)

	start = time.Now()
	mismatches := 0
	for _, p := range qs {
		naive := net.NaiveLocate(p)
		exact := loc.LocateExact(p)
		if naive.Kind != exact.Kind ||
			(naive.Kind == core.Reception && naive.Station != exact.Station) {
			mismatches++
		}
	}
	naiveTime := time.Since(start)

	fmt.Printf("queries: %d over %v\n", queries, qbox)
	fmt.Printf("  DS      : %v total, %v/op  (H+: %d, H-: %d, H?: %d)\n",
		dsTime.Round(time.Millisecond), dsTime/time.Duration(queries),
		counts[0], counts[1], counts[2])
	fmt.Printf("  Batch   : %v total, %v/op  (%d workers, answers identical)\n",
		batchTime.Round(time.Millisecond), batchTime/time.Duration(queries),
		par.Norm(workers, queries))
	fmt.Printf("  Voronoi : %v total, %v/op\n",
		voroTime.Round(time.Millisecond), voroTime/time.Duration(queries))
	fmt.Printf("  Naive   : %v total, %v/op (includes DS cross-check)\n",
		naiveTime.Round(time.Millisecond), naiveTime/time.Duration(queries))
	if mismatches > 0 {
		return fmt.Errorf("%d queries disagreed between LocateExact and the naive scan", mismatches)
	}
	fmt.Printf("  LocateExact agreed with the naive scan on all %d queries\n", queries)
	uncertainFrac := float64(counts[2]) / float64(queries)
	fmt.Printf("  uncertain fraction: %.4f (eps=%v bounds the ring area per zone)\n", uncertainFrac, eps)
	return nil
}
