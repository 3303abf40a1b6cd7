package exp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/workload"
)

// ResolverBenchRow is one cell of the E17 cross-backend comparison:
// a (workload, resolver) pair with throughput, latency percentiles
// and the answer-disagreement fraction against the exact backend.
// The JSON tags define the BENCH_resolvers.json artifact schema.
type ResolverBenchRow struct {
	Workload   string  `json:"workload"`
	Resolver   string  `json:"resolver"`
	Stations   int     `json:"stations"`
	Queries    int     `json:"queries"`
	BuildNanos int64   `json:"build_ns"`
	QPS        float64 `json:"qps"`
	P50Nanos   int64   `json:"p50_ns"`
	P99Nanos   int64   `json:"p99_ns"`
	Disagree   float64 `json:"disagree_frac"`
}

// resolverWorkloads are the three query distributions every backend is
// compared on — the same trio cmd/sinrload can replay over HTTP.
func resolverWorkloads(gen *workload.Generator, queries int, box geom.Box) map[string][]geom.Point {
	mob := gen.MobilityTrace(64, (queries+63)/64, box, 0.05)
	return map[string][]geom.Point{
		"uniform":  gen.QueryPoints(queries, box),
		"hotspot":  gen.HotspotPoints(queries, box, 4, 0.8, 0.3),
		"mobility": mob[:min(queries, len(mob))],
	}
}

// MeasureResolverComparison runs every backend named by filter
// ("" or "all" means all four) over the uniform, hotspot and mobility
// workloads on one random uniform n-station network and measures
// build cost, batch throughput, single-query latency percentiles and
// per-point disagreement against the exact backend.
func MeasureResolverComparison(n, queries, workers int, filter string) ([]ResolverBenchRow, error) {
	gen := workload.NewGenerator(int64(6000 * n))
	net, err := randomUniformNet(gen, n, 0.01, 3)
	if err != nil {
		return nil, err
	}
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	loads := resolverWorkloads(gen, queries, box)

	kinds := resolve.Kinds()
	if filter != "" && filter != "all" {
		k, err := resolve.ParseKind(filter)
		if err != nil {
			return nil, err
		}
		kinds = []resolve.Kind{k}
	}

	ctx := context.Background()
	exact, err := resolve.NewExact(net, resolve.WithWorkers(workers))
	if err != nil {
		return nil, err
	}

	names := make([]string, 0, len(loads))
	for name := range loads {
		names = append(names, name)
	}
	sort.Strings(names)

	// The ground truth depends only on the workload — compute it once
	// per workload, not once per (kind, workload) cell.
	truths := make(map[string][]core.Location, len(names))
	for _, name := range names {
		truth := make([]core.Location, len(loads[name]))
		if err := exact.ResolveBatch(ctx, loads[name], truth); err != nil {
			return nil, err
		}
		truths[name] = truth
	}

	var rows []ResolverBenchRow
	for _, kind := range kinds {
		res, err := resolve.New(kind, net,
			resolve.WithWorkers(workers), resolve.WithEpsilon(0.1))
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			pts := loads[name]
			truth := truths[name]

			// Latency percentiles from timed single-point queries.
			lat := make([]time.Duration, len(pts))
			for i, p := range pts {
				t0 := time.Now()
				res.Resolve(ctx, p)
				lat[i] = time.Since(t0)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

			// Throughput from one sharded batch run.
			answers := make([]core.Location, len(pts))
			t0 := time.Now()
			if err := res.ResolveBatch(ctx, pts, answers); err != nil {
				return nil, err
			}
			elapsed := time.Since(t0)

			disagree := 0
			for i := range answers {
				if resolve.StationIndex(answers[i]) != resolve.StationIndex(truth[i]) {
					disagree++
				}
			}
			rows = append(rows, ResolverBenchRow{
				Workload:   name,
				Resolver:   kind.String(),
				Stations:   n,
				Queries:    len(pts),
				BuildNanos: res.Stats().BuildCost.Nanoseconds(),
				QPS:        float64(len(pts)) / elapsed.Seconds(),
				P50Nanos:   lat[len(lat)/2].Nanoseconds(),
				P99Nanos:   lat[len(lat)*99/100].Nanoseconds(),
				Disagree:   float64(disagree) / float64(len(pts)),
			})
		}
	}
	return rows, nil
}

// ResolverComparison runs E17: the four resolvers of the pluggable
// query API answer the same uniform, hotspot and mobility workloads;
// qps, latency percentiles and answer disagreement are tabulated per
// (workload, backend). filter restricts the backend axis ("" or
// "all" runs all four); jsonPath, when non-empty, receives the
// BENCH_resolvers.json artifact.
//
// The shape check is the paper's: the exact, locator and voronoi
// backends are algorithms for the same SINR question and must
// disagree on zero points, while the UDG baseline is a different
// reception model whose disagreement is reported, not constrained.
func ResolverComparison(workers int, filter, jsonPath string) (*Table, error) {
	t := &Table{
		ID:         "E17",
		Title:      "Pluggable resolvers: one query interface, four backends",
		PaperClaim: "exact, Theorem 3 locator (exact fallback) and Voronoi-candidate answer identically on every workload; UDG is the graph baseline the paper argues against",
		Headers:    []string{"workload", "resolver", "build", "qps", "p50", "p99", "disagree"},
	}
	rows, err := MeasureResolverComparison(24, 2000, workers, filter)
	if err != nil {
		return nil, err
	}
	t.Pass = true
	for _, r := range rows {
		t.AddRow(
			r.Workload,
			r.Resolver,
			time.Duration(r.BuildNanos).Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.QPS),
			time.Duration(r.P50Nanos).String(),
			time.Duration(r.P99Nanos).String(),
			fmt.Sprintf("%.4f", r.Disagree),
		)
		if r.Resolver != resolve.KindUDG.String() && r.Disagree != 0 {
			t.Pass = false
		}
	}
	if jsonPath != "" {
		if err := WriteBenchJSON(jsonPath, rows); err != nil {
			return nil, err
		}
		t.Note("wrote %s (%d rows)", jsonPath, len(rows))
	}
	t.Note("disagree is the per-point answer-disagreement fraction vs the exact backend")
	return t, nil
}
