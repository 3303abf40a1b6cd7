package sinrdiag

// Benchmark harness: one benchmark per figure and theorem of the
// paper. Run everything with
//
//	go test -bench=. -benchmem
//
// The benchmarks exercise the same code paths as the cmd/sinrbench
// experiment tables; here they measure throughput of the regeneration
// (per-op cost of reproducing each artifact).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/exp"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/workload"
)

// benchNetwork builds a deterministic n-station uniform network.
func benchNetwork(b *testing.B, n int) *core.Network {
	b.Helper()
	gen := workload.NewGenerator(int64(90000 + n))
	pts, err := gen.UniformSeparated(n, geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5)), 0.05)
	if err != nil {
		b.Fatal(err)
	}
	net, err := core.NewUniform(pts, 0.01, 3)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkFig1Reception regenerates the Figure 1 scenario outcomes
// (E1).
func BenchmarkFig1Reception(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Fig1Reception()
		if err != nil || !tbl.Pass {
			b.Fatalf("err=%v pass=%v", err, tbl != nil && tbl.Pass)
		}
	}
}

// BenchmarkFig2Cumulative regenerates the Figure 2 UDG false positive
// (E2).
func BenchmarkFig2Cumulative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Fig2Cumulative()
		if err != nil || !tbl.Pass {
			b.Fatalf("err=%v", err)
		}
	}
}

// BenchmarkFig34StepSeries regenerates the Figures 3-4 progression
// (E3).
func BenchmarkFig34StepSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Fig34StepSeries()
		if err != nil || !tbl.Pass {
			b.Fatalf("err=%v", err)
		}
	}
}

// BenchmarkFig5NonConvex regenerates the Figure 5 non-convexity
// certificates (E4).
func BenchmarkFig5NonConvex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Fig5NonConvex()
		if err != nil || !tbl.Pass {
			b.Fatalf("err=%v", err)
		}
	}
}

// BenchmarkConvexityValidation runs the Theorem 1 Sturm line test on a
// random network (E5): cost of one line-root count certificate.
func BenchmarkConvexityValidation(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				theta := rng.Float64() * 3.14159
				line := geom.Line{
					P: geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4),
					D: geom.Pt(1, theta),
				}
				count, err := net.LineRootCount(0, line)
				if err != nil {
					b.Fatal(err)
				}
				if count > 2 {
					b.Fatalf("Theorem 1 violated: %d crossings", count)
				}
			}
		})
	}
}

// BenchmarkFatness measures the Theorem 2 fatness validation (E6):
// one full radial min/max measurement per op.
func BenchmarkFatness(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			z, err := net.Zone(0)
			if err != nil {
				b.Fatal(err)
			}
			bound, _ := core.FatnessBound(net.Beta())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phi, err := z.MeasuredFatness(64, 1e-6)
				if err != nil {
					b.Fatal(err)
				}
				if phi > bound*(1+1e-6) {
					b.Fatalf("Theorem 2 violated: %v > %v", phi, bound)
				}
			}
		})
	}
}

// BenchmarkQDSBuild measures Theorem 3 preprocessing (E7): one full
// per-station structure build per op, across n and eps.
func BenchmarkQDSBuild(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		for _, eps := range []float64{0.2, 0.05} {
			b.Run(fmt.Sprintf("n=%d/eps=%.2f", n, eps), func(b *testing.B) {
				net := benchNetwork(b, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q, err := net.BuildQDS(0, eps)
					if err != nil {
						b.Fatal(err)
					}
					_ = q.NumUncertainCells()
				}
			})
		}
	}
}

// BenchmarkQueryNaive / BenchmarkQueryVoronoi / BenchmarkQueryDS
// measure the three point-location algorithms (E8).
func BenchmarkQueryNaive(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			gen := workload.NewGenerator(17)
			qs := gen.QueryPoints(1024, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.NaiveLocate(qs[i%len(qs)])
			}
		})
	}
}

func BenchmarkQueryVoronoi(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			tree := kdtree.New(net.Stations())
			gen := workload.NewGenerator(17)
			qs := gen.QueryPoints(1024, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.VoronoiLocate(qs[i%len(qs)], tree)
			}
		})
	}
}

// benchLocators caches Theorem 3 structures across b.N re-runs (the
// n=256 build costs tens of seconds; rebuilding it for every
// benchmark iteration-count probe would dominate the suite). They are
// keyed by station count and worker count, since a LocatorResolver
// shards its batches over the workers it was built with. Each answers
// without exact fallback, so the batch benchmarks time the same
// approximate answer the single-point ones read from its Locator.
var benchLocators = map[[2]int]*resolve.LocatorResolver{}

// benchLocator returns the cached eps = 0.1 locator resolver for the
// n-station bench network; workers 0 means one per CPU.
func benchLocator(b *testing.B, n, workers int) *resolve.LocatorResolver {
	b.Helper()
	key := [2]int{n, workers}
	r := benchLocators[key]
	if r == nil {
		var err error
		r, err = resolve.NewLocator(benchNetwork(b, n), resolve.WithEpsilon(0.1),
			resolve.WithExactFallback(false), resolve.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		benchLocators[key] = r
	}
	return r
}

func BenchmarkQueryDS(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			loc := benchLocator(b, n, 0).Locator()
			gen := workload.NewGenerator(17)
			qs := gen.QueryPoints(1024, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loc.Locate(qs[i%len(qs)])
			}
		})
	}
}

// BenchmarkLocateScan is the O(n) full-scan baseline of the locate
// hot path (E18): nearest station by linear scan, then that station's
// QDS classification. Compare against BenchmarkQueryDS (the indexed
// path on the identical locator and query mix) for the spatial-index
// speedup.
func BenchmarkLocateScan(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			loc := benchLocator(b, n, 0).Locator()
			gen := workload.NewGenerator(17)
			qs := gen.QueryPoints(1024, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loc.LocateScan(qs[i%len(qs)])
			}
		})
	}
}

// BenchmarkLocateNoIndex is the pre-index kd-tree-only path (a
// locator built with NoSpatialIndex), isolating what the sharded
// index adds on top of the nearest-station lookup. Small sizes only:
// the point is the per-query constant, not the build.
func BenchmarkLocateNoIndex(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			loc, err := core.BuildLocatorOpts(net, 0.1, core.BuildOptions{NoSpatialIndex: true})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(17)
			qs := gen.QueryPoints(1024, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loc.Locate(qs[i%len(qs)])
			}
		})
	}
}

// benchResolveBatch times one op as a full 1024-point ResolveBatch of
// r into a reused answer slice.
func benchResolveBatch(b *testing.B, r resolve.Resolver) {
	b.Helper()
	gen := workload.NewGenerator(17)
	qs := gen.QueryPoints(1024, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
	dst := make([]core.Location, len(qs))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ResolveBatch(ctx, qs, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)), "queries/op")
}

// BenchmarkQueryDSBatch measures the batch query engine: one op is a
// full 1024-point approximate LocatorResolver.ResolveBatch sharded
// over the default worker pool. Compare ns/op against
// BenchmarkQueryDSBatchSerial (the same 1024 queries answered on one
// goroutine) for the concurrency speedup; on a k-core machine the
// batch path approaches k-fold throughput.
func BenchmarkQueryDSBatch(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchResolveBatch(b, benchLocator(b, n, 0))
		})
	}
}

// BenchmarkQueryDSBatchSerial is the single-goroutine baseline for
// BenchmarkQueryDSBatch: identical work, WithWorkers(1).
func BenchmarkQueryDSBatchSerial(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchResolveBatch(b, benchLocator(b, n, 1))
		})
	}
}

// BenchmarkHeardByBatch measures the preprocessing-free batch path:
// the exact resolver's ResolveBatch, one SINR scan per point, sharded
// over the default worker pool.
func BenchmarkHeardByBatch(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, err := resolve.NewExact(benchNetwork(b, n))
			if err != nil {
				b.Fatal(err)
			}
			benchResolveBatch(b, r)
		})
	}
}

// BenchmarkLocatorBuild measures the Theorem 3 full-network build —
// the O(n^3/eps) preprocessing the worker pool attacks — serial vs
// one-worker-per-CPU.
func BenchmarkLocatorBuild(b *testing.B) {
	for _, n := range []int{8, 24} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				net := benchNetwork(b, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					loc, err := core.BuildLocatorOpts(net, 0.2, core.BuildOptions{Workers: mode.workers})
					if err != nil {
						b.Fatal(err)
					}
					_ = loc.NumUncertainCells()
				}
			})
		}
	}
}

// BenchmarkLocateStream pushes a sustained query stream through the
// ordered streaming engine (chunking, worker pool, in-order emit) of
// the locator resolver.
func BenchmarkLocateStream(b *testing.B) {
	r := benchLocator(b, 16, 0)
	gen := workload.NewGenerator(17)
	qs := gen.QueryPoints(4096, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := make(chan geom.Point, 256)
		out := r.ResolveStream(context.Background(), in)
		go func() {
			for _, q := range qs {
				in <- q
			}
			close(in)
		}()
		got := 0
		for range out {
			got++
		}
		if got != len(qs) {
			b.Fatalf("stream dropped answers: %d/%d", got, len(qs))
		}
	}
	b.ReportMetric(float64(len(qs)), "queries/op")
}

// BenchmarkStarShape measures the Lemma 3.1 / Observation 2.2
// validation (E9).
func BenchmarkStarShape(b *testing.B) {
	net := benchNetwork(b, 16)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := net.StarShapeViolations(0, 4, 8, 8, rng)
		if err != nil {
			b.Fatal(err)
		}
		if v != 0 {
			b.Fatalf("star-shape violations: %d", v)
		}
	}
}

// BenchmarkSegmentTest measures the Section 5.1 segment-test primitive
// (E10): one Sturm-certified crossing count per op.
func BenchmarkSegmentTest(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			rng := rand.New(rand.NewSource(11))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg := geom.Seg(
					geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4),
					geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4),
				)
				if _, err := net.SegmentTest(0, seg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThreeStationSturm measures the Section 3.2 quartic analysis
// (E10).
func BenchmarkThreeStationSturm(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1 := geom.Pt(0.2+rng.Float64()*5, 1+rng.Float64()*5)
		s2 := geom.Pt(0.2+rng.Float64()*5, 1+rng.Float64()*5)
		rep, err := core.ThreeStationAnalysis(s1, s2)
		if err != nil {
			b.Fatal(err)
		}
		if rep.DistinctPos > 2 {
			b.Fatal("Lemma 3.3 violated")
		}
	}
}

// BenchmarkBRPTrace measures the boundary reconstruction trace (E11):
// one full boundary walk per op.
func BenchmarkBRPTrace(b *testing.B) {
	net := benchNetwork(b, 16)
	z, err := net.Zone(0)
	if err != nil {
		b.Fatal(err)
	}
	bounds, err := net.SampledBounds(0, 128)
	if err != nil {
		b.Fatal(err)
	}
	gamma := 0.1 * bounds.DeltaLower * bounds.DeltaLower / (core.GammaSafety * bounds.DeltaUpper)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := z.TraceBoundary(gamma, core.BRPOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkBoundaryPoly measures construction of the degree-2n
// restricted boundary polynomial (the O(n^2) product/division path).
func BenchmarkBoundaryPoly(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNetwork(b, n)
			line := geom.Line{P: geom.Pt(-3, 0.2), D: geom.Pt(1, 0.1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.BoundaryPoly(0, line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRenderFigure measures figure rasterization (the artifact
// regeneration path of cmd/sinrmap).
func BenchmarkRenderFigure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RenderFigure("fig1a", 100, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampledBounds measures the convexity-certified bound
// computation that sizes the Theorem 3 grid (the E11 ablation's
// winning variant).
func BenchmarkSampledBounds(b *testing.B) {
	net := benchNetwork(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.SampledBounds(0, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneralAlphaProbe measures the sampling-only convexity
// certificate used beyond alpha = 2 (experiment E12).
func BenchmarkGeneralAlphaProbe(b *testing.B) {
	net, err := core.NewNetwork(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(2, 1), geom.Pt(-1, 2)},
		0.01, 2.5, core.WithAlpha(3))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := net.ProbeConvexity(0, 20, 8, rng)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Convex() {
			b.Fatal("unexpected violation")
		}
	}
}

// BenchmarkScheduling measures the E14 greedy scheduler on a 40-link
// instance under both models.
func BenchmarkScheduling(b *testing.B) {
	gen := workload.NewGenerator(99)
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(18, 18))
	senders := gen.UniformInBox(40, box)
	links := make([]sched.Link, len(senders))
	for i, s := range senders {
		links[i] = sched.Link{
			Sender:   s,
			Receiver: geom.PolarPoint(s, 0.5+gen.Float64(), gen.Float64()*6.28),
		}
	}
	sp, err := sched.NewSINRProblem(links, 0.0001, 2)
	if err != nil {
		b.Fatal(err)
	}
	order := sched.ByLength(links, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.Greedy(sp, order)
		if err != nil {
			b.Fatal(err)
		}
		if s.NumSlots() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkDiagramBuild measures full-diagram measurement (per-zone
// polygonal geometry for every station).
func BenchmarkDiagramBuild(b *testing.B) {
	net := benchNetwork(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := diagram.Build(net, 64, 1e-5)
		if err != nil {
			b.Fatal(err)
		}
		if d.TotalArea() <= 0 {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkCommunicationGraph measures the concurrent-transmission
// connectivity computation over the diagram.
func BenchmarkCommunicationGraph(b *testing.B) {
	net := benchNetwork(b, 64)
	d, err := diagram.Build(net, 32, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj := d.CommunicationGraph()
		if len(adj) != 64 {
			b.Fatal("bad graph")
		}
	}
}
