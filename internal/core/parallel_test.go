package core

import (
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// testNetwork builds a deterministic n-station uniform network on the
// seeded workload generator (the same recipe as the benchmarks).
func testNetwork(t *testing.T, seed int64, n int) *Network {
	t.Helper()
	gen := workload.NewGenerator(seed)
	pts, err := gen.UniformSeparated(n, geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5)), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewUniform(pts, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testQueries draws a deterministic query set covering the deployment
// box with margin, so answers include H+, H- and H? cases.
func testQueries(n int) []geom.Point {
	gen := workload.NewGenerator(171)
	return gen.QueryPoints(n, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
}

// TestParallelBuildDeterminism is the acceptance gate of the
// concurrency layer: on a seeded 50-station workload the parallel
// build must answer every query byte-identically to the serial build,
// and the structures must agree cell-count for cell-count.
func TestParallelBuildDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("50-station build in short mode")
	}
	net := testNetwork(t, 42, 50)
	serial, err := BuildLocatorOpts(net, 0.5, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildLocatorOpts(net, 0.5, BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.NumUncertainCells(), parallel.NumUncertainCells(); s != p {
		t.Fatalf("|T?| diverged: serial %d, parallel %d", s, p)
	}
	for i := 0; i < net.NumStations(); i++ {
		if s, p := serial.QDSFor(i).NumUncertainCells(), parallel.QDSFor(i).NumUncertainCells(); s != p {
			t.Fatalf("station %d |T?| diverged: serial %d, parallel %d", i, s, p)
		}
	}
	for _, q := range testQueries(4000) {
		if s, p := serial.Locate(q), parallel.Locate(q); s != p {
			t.Fatalf("Locate(%v) diverged: serial %v, parallel %v", q, s, p)
		}
	}
}

// TestWorkersOneFallback pins the Workers: 1 contract of the build
// knob: the serial build (no goroutines needed) answers every query
// like the default one-worker-per-CPU build. The batch and stream
// worker knob is resolve.WithWorkers, pinned by internal/resolve's
// TestResolveWorkersOneFallback.
func TestWorkersOneFallback(t *testing.T) {
	net := testNetwork(t, 7, 12)
	loc, err := BuildLocatorOpts(net, 0.4, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := net.BuildLocator(0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range testQueries(600) {
		if s, d := loc.Locate(q), def.Locate(q); s != d {
			t.Fatalf("query %d: Workers:1 %v vs default %v", i, s, d)
		}
	}
}

// TestParallelBuildErrorMatchesSerial checks the failure contract: the
// parallel build surfaces the same lowest-index error a serial
// left-to-right build would.
func TestParallelBuildErrorMatchesSerial(t *testing.T) {
	// beta <= 1 fails QDS validation for every station; both builds
	// must surface the station-0 error.
	net := testNetwork(t, 3, 6)
	nets, err := NewUniform(net.Stations(), 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, serialErr := BuildLocatorOpts(nets, 0.4, BuildOptions{Workers: 1})
	_, parErr := BuildLocatorOpts(nets, 0.4, BuildOptions{Workers: 4})
	if serialErr == nil || parErr == nil {
		t.Fatal("beta <= 1 build must fail")
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("error diverged: serial %q, parallel %q", serialErr, parErr)
	}
	if !errors.Is(parErr, ErrNeedBetaGT1) {
		t.Fatalf("parallel error lost its cause: %v", parErr)
	}
}
