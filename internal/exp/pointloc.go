package exp

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/workload"
)

// Theorem3QDS runs E7: build the per-station structure across n and
// eps, verifying the three Theorem 3 guarantees.
func Theorem3QDS() (*Table, error) {
	t := &Table{
		ID:         "E7",
		Title:      "Theorem 3 / Figure 6: approximate point-location structure",
		PaperClaim: "(1) H+ inside H; (2) H- disjoint from H; (3) area(H?) <= eps*area(H); size O(eps^-1) per station",
		Headers: []string{
			"n", "eps", "|T?|", "areaRatio", "inv1+2 bad", "sturmBad",
		},
	}
	t.Pass = true
	rng := rand.New(rand.NewSource(1007))
	for _, n := range []int{4, 16} {
		gen := workload.NewGenerator(int64(3000 * n))
		net, err := randomUniformNet(gen, n, 0.01, 3)
		if err != nil {
			return nil, err
		}
		z, err := net.Zone(0)
		if err != nil {
			return nil, err
		}
		for _, eps := range []float64{0.5, 0.2, 0.1, 0.05} {
			q, err := net.BuildQDS(0, eps)
			if err != nil {
				return nil, err
			}
			area, err := z.ApproxArea(720, q.Gamma()/16)
			if err != nil {
				return nil, err
			}
			ratio := q.UncertainArea() / area

			// Invariants (1) and (2) by sampling.
			bad := 0
			ext := q.Bounds().DeltaUpper * 1.5
			s := net.Station(0)
			for i := 0; i < 3000; i++ {
				p := geom.Pt(s.X+(rng.Float64()*2-1)*ext, s.Y+(rng.Float64()*2-1)*ext)
				in := z.Contains(p)
				switch q.Classify(p) {
				case core.TPlus:
					if !in {
						bad++
					}
				case core.TMinus:
					if in {
						bad++
					}
				}
			}
			sturmBad, err := q.VerifyColumns()
			if err != nil {
				return nil, err
			}
			t.AddRowf(n, eps, q.NumUncertainCells(), ratio, bad, sturmBad)
			if ratio > eps || bad > 0 || sturmBad > 0 {
				t.Pass = false
			}
		}
	}
	return t, nil
}

// QueryTiming holds measured per-query times for E8.
type QueryTiming struct {
	N          int
	BuildTime  time.Duration
	NaivePerOp time.Duration
	VoroPerOp  time.Duration
	DSPerOp    time.Duration
}

// MeasureQueryScaling measures the three query algorithms of the
// paper's point-location discussion across network sizes: the naive
// all-stations scan, the Voronoi/nearest-candidate check, and the
// Theorem 3 structure. queries controls the sample count per cell.
func MeasureQueryScaling(sizes []int, queries int) ([]QueryTiming, error) {
	var out []QueryTiming
	for _, n := range sizes {
		gen := workload.NewGenerator(int64(4000 * n))
		net, err := randomUniformNet(gen, n, 0.01, 3)
		if err != nil {
			return nil, err
		}
		box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
		qs := gen.QueryPoints(queries, box)

		start := time.Now()
		loc, err := net.BuildLocator(0.1)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)

		tree := kdtree.New(net.Stations())

		start = time.Now()
		for _, p := range qs {
			net.NaiveLocate(p)
		}
		naive := time.Since(start) / time.Duration(len(qs))

		start = time.Now()
		for _, p := range qs {
			net.VoronoiLocate(p, tree)
		}
		voro := time.Since(start) / time.Duration(len(qs))

		start = time.Now()
		for _, p := range qs {
			loc.Locate(p)
		}
		ds := time.Since(start) / time.Duration(len(qs))

		out = append(out, QueryTiming{
			N: n, BuildTime: build, NaivePerOp: naive, VoroPerOp: voro, DSPerOp: ds,
		})
	}
	return out, nil
}

// QueryScaling runs E8 and formats the timings.
func QueryScaling() (*Table, error) {
	t := &Table{
		ID:         "E8",
		Title:      "Theorem 3: query-time scaling (naive vs Voronoi-candidate vs DS)",
		PaperClaim: "naive O(n^2)-style scan < Voronoi O(n) < DS O(log n) at scale; crossover at small n",
		Headers:    []string{"n", "build", "naive/op", "voronoi/op", "DS/op"},
	}
	timings, err := MeasureQueryScaling([]int{4, 16, 64, 256}, 4000)
	if err != nil {
		return nil, err
	}
	for _, tm := range timings {
		t.AddRow(
			strconv.Itoa(tm.N),
			tm.BuildTime.Round(time.Microsecond).String(),
			tm.NaivePerOp.String(),
			tm.VoroPerOp.String(),
			tm.DSPerOp.String(),
		)
	}
	// Shape check: at the largest n the DS must beat the naive scan.
	last := timings[len(timings)-1]
	t.Pass = last.DSPerOp < last.NaivePerOp
	t.Note("DS per-op time should stay near-flat in n; naive grows ~quadratically per answered query set")
	return t, nil
}

// GridAblation runs E11: gamma-grid sizing ablation — |T?| must scale
// as O(1/eps), and the Section 5.2 improved bounds must shrink the
// structure versus raw Theorem 4.1 bounds.
func GridAblation() (*Table, error) {
	t := &Table{
		ID:         "E11",
		Title:      "Ablation: grid pitch vs eps; improved vs raw bounds",
		PaperClaim: "|T?| = O(1/eps); Section 5.2 Theta(r) bounds shrink the grid vs Theorem 4.1's O(sqrt(n)) ratio",
		Headers:    []string{"eps", "|T?|", "ratioVsPrev", "rawRatio", "improvedRatio"},
	}
	gen := workload.NewGenerator(1009)
	net, err := randomUniformNet(gen, 12, 0.01, 3)
	if err != nil {
		return nil, err
	}
	raw, err := net.TheoremBounds(0)
	if err != nil {
		return nil, err
	}
	imp, err := net.ImprovedBounds(0)
	if err != nil {
		return nil, err
	}
	prev := 0
	t.Pass = true
	for _, eps := range []float64{0.8, 0.4, 0.2, 0.1, 0.05} {
		q, err := net.BuildQDS(0, eps)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if prev > 0 {
			ratio = float64(q.NumUncertainCells()) / float64(prev)
		}
		t.AddRowf(eps, q.NumUncertainCells(), ratio, raw.FatnessRatio(), imp.FatnessRatio())
		if prev > 0 && (ratio < 1.3 || ratio > 3.0) {
			t.Pass = false
		}
		prev = q.NumUncertainCells()
	}
	if imp.FatnessRatio() > raw.FatnessRatio() {
		t.Pass = false
	}
	t.Note("halving eps should ~double |T?|; improved delta/Delta ratio <= raw O(sqrt(n)) ratio")
	return t, nil
}

// Experiment pairs an experiment id with its runner, so callers can
// select before paying the (sometimes substantial) execution cost.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// DefaultHotPathSizes is the network-size axis of the E18 hot-path
// comparison: up to 1024 stations at constant density — the committed
// BENCH_hotpath.json trajectory point is produced at these sizes.
// CI and tests pass a smaller axis (the n=1024 locator build is the
// expensive part, not the queries).
var DefaultHotPathSizes = []int{16, 64, 256, 1024}

// DefaultHotPathQueries is the per-workload query count of E18.
const DefaultHotPathQueries = 4096

// Registry returns every experiment in paper order. trials scales the
// randomized validations (use ~5 for quick runs, ~20 for full runs).
// workers is the worker count of the concurrency-layer experiments (0
// means core.DefaultWorkers(), 1 forces the serial paths). The other
// arguments are the axes and artifact paths of E17-E20; an empty path
// writes no file:
//
//   - E17: resolver restricts the cross-backend comparison to one
//     backend ("" or "all" compares all four); resolversOut is the
//     BENCH_resolvers.json path.
//   - E18: hotSizes is the network-size axis, hotQueries the
//     per-workload query count, hotPathOut the BENCH_hotpath.json path.
//   - E19: dynSizes is the network-size axis, dynEvents the churn-trace
//     length, dynQueries the correctness-probe count per cell, dynOut
//     the BENCH_dynamic.json path.
//   - E20: schedSizes is the link-count axis, schedOut the
//     BENCH_sched.json path.
func Registry(trials, workers int, resolver, resolversOut string, hotSizes []int, hotQueries int, hotPathOut string,
	dynSizes []int, dynEvents, dynQueries int, dynOut string, schedSizes []int, schedOut string) []Experiment {
	return []Experiment{
		{"E1", Fig1Reception},
		{"E2", Fig2Cumulative},
		{"E3", Fig34StepSeries},
		{"E4", Fig5NonConvex},
		{"E5", func() (*Table, error) { return Theorem1Convexity(trials) }},
		{"E6", func() (*Table, error) { return Theorem2Fatness(trials) }},
		{"E7", Theorem3QDS},
		{"E8", QueryScaling},
		{"E9", func() (*Table, error) { return StarShapeObs22(trials) }},
		{"E10", func() (*Table, error) { return SturmSection32(trials * 10) }},
		{"E10b", func() (*Table, error) { return MergeConstructions(trials * 5) }},
		{"E11", GridAblation},
		{"E12", func() (*Table, error) { return GeneralAlphaConvexity(trials) }},
		{"E13", NonUniformPower},
		{"E14", func() (*Table, error) { return Scheduling(trials) }},
		{"E15", func() (*Table, error) { return CommunicationGraph(trials) }},
		{"E16", func() (*Table, error) { return ParallelScaling(workers) }},
		{"E17", func() (*Table, error) { return ResolverComparison(workers, resolver, resolversOut) }},
		{"E18", func() (*Table, error) { return HotPathComparison(workers, hotSizes, hotQueries, hotPathOut) }},
		{"E19", func() (*Table, error) { return DynamicChurnComparison(dynSizes, dynEvents, dynQueries, dynOut) }},
		{"E20", func() (*Table, error) { return SchedComparison(schedSizes, schedOut) }},
	}
}
