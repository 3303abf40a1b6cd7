package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:         "T0",
		Title:      "demo",
		PaperClaim: "claim",
		Headers:    []string{"a", "bb"},
		Pass:       true,
	}
	tbl.AddRow("1", "2")
	tbl.AddRowf(3.14159, 42)
	tbl.Note("note %d", 7)
	s := tbl.String()
	for _, want := range []string{"T0", "demo", "claim", "PASS", "3.142", "42", "note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	tbl.Pass = false
	if !strings.Contains(tbl.String(), "FAIL") {
		t.Error("expected FAIL marker")
	}
}

func TestFig1Reception(t *testing.T) {
	tbl, err := Fig1Reception()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Figure 1 story does not reproduce:\n%s", tbl)
	}
}

func TestFig2Cumulative(t *testing.T) {
	tbl, err := Fig2Cumulative()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Figure 2 story does not reproduce:\n%s", tbl)
	}
}

func TestFig34StepSeries(t *testing.T) {
	tbl, err := Fig34StepSeries()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Figures 3-4 progression does not reproduce:\n%s", tbl)
	}
}

func TestFig5NonConvex(t *testing.T) {
	tbl, err := Fig5NonConvex()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Figure 5 non-convexity does not reproduce:\n%s", tbl)
	}
}

func TestTheorem1Convexity(t *testing.T) {
	tbl, err := Theorem1Convexity(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Theorem 1 validation failed:\n%s", tbl)
	}
}

func TestTheorem2Fatness(t *testing.T) {
	tbl, err := Theorem2Fatness(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Theorem 2 validation failed:\n%s", tbl)
	}
}

func TestTheorem3QDS(t *testing.T) {
	if testing.Short() {
		t.Skip("QDS build sweep is slow")
	}
	tbl, err := Theorem3QDS()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("Theorem 3 validation failed:\n%s", tbl)
	}
}

func TestStarShapeObs22(t *testing.T) {
	tbl, err := StarShapeObs22(3)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E9 validation failed:\n%s", tbl)
	}
}

func TestSturmSection32(t *testing.T) {
	tbl, err := SturmSection32(50)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E10 validation failed:\n%s", tbl)
	}
}

func TestMergeConstructions(t *testing.T) {
	tbl, err := MergeConstructions(20)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E10b validation failed:\n%s", tbl)
	}
}

func TestGridAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("grid ablation sweep is slow")
	}
	tbl, err := GridAblation()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E11 validation failed:\n%s", tbl)
	}
}

func TestGeneralAlphaConvexity(t *testing.T) {
	tbl, err := GeneralAlphaConvexity(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E12 validation failed:\n%s", tbl)
	}
}

func TestNonUniformPower(t *testing.T) {
	tbl, err := NonUniformPower()
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E13 validation failed:\n%s", tbl)
	}
}

func TestRenderFigureNames(t *testing.T) {
	for _, name := range []string{"fig1a", "fig1b", "fig1c", "fig2-udg", "fig2-sinr", "fig5"} {
		rm, err := RenderFigure(name, 40, 40)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rm.Width != 40 || rm.Height != 40 {
			t.Errorf("%s: size %dx%d", name, rm.Width, rm.Height)
		}
	}
	if _, err := RenderFigure("nope", 10, 10); err == nil {
		t.Error("unknown figure must error")
	}
}

func TestMeasureQueryScalingSmall(t *testing.T) {
	timings, err := MeasureQueryScaling([]int{4, 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 2 {
		t.Fatalf("timings = %v", timings)
	}
	for _, tm := range timings {
		if tm.BuildTime <= 0 || tm.NaivePerOp <= 0 || tm.DSPerOp <= 0 {
			t.Errorf("non-positive timing: %+v", tm)
		}
	}
}

func TestScheduling(t *testing.T) {
	tbl, err := Scheduling(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E14 validation failed:\n%s", tbl)
	}
}

func TestCommunicationGraphExperiment(t *testing.T) {
	tbl, err := CommunicationGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Pass {
		t.Fatalf("E15 validation failed:\n%s", tbl)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	reg := Registry(1, 0, "", "", DefaultHotPathSizes, DefaultHotPathQueries, "",
		DefaultDynamicSizes, DefaultDynamicEvents, DefaultDynamicQueries, "", DefaultSchedSizes, "")
	if len(reg) != 21 {
		t.Fatalf("registry has %d experiments, want 21 (E1-E20 plus E10b)", len(reg))
	}
	for _, e := range reg {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestResolverComparisonShape runs E17 small and checks the exact
// backends report zero disagreement while every (workload, backend)
// cell is present.
func TestResolverComparisonShape(t *testing.T) {
	rows, err := MeasureResolverComparison(8, 300, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 4 backends x 3 workloads", len(rows))
	}
	for _, r := range rows {
		if r.Resolver != "udg" && r.Disagree != 0 {
			t.Fatalf("%s/%s disagrees with exact on %.4f of points", r.Workload, r.Resolver, r.Disagree)
		}
		if r.QPS <= 0 || r.Queries == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	out := t.TempDir() + "/BENCH_resolvers.json"
	if err := WriteBenchJSON(out, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back []ResolverBenchRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("artifact round-trip lost rows: %d != %d", len(back), len(rows))
	}
}

// TestHotPathComparisonShape checks the E18 measurement: identical
// indexed/scan answers, an allocation-free indexed loop, and a sane
// artifact round-trip.
func TestHotPathComparisonShape(t *testing.T) {
	rows, err := MeasureHotPath([]int{8, 16}, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 2 sizes x 3 workloads", len(rows))
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Fatalf("%s/n=%d: indexed and scan paths disagree on %d points", r.Workload, r.Stations, r.Mismatches)
		}
		if r.IndexedAllocs > 0.01 {
			t.Fatalf("%s/n=%d: indexed hot path allocates %.3f/op", r.Workload, r.Stations, r.IndexedAllocs)
		}
		if r.ScanNanos <= 0 || r.IndexedNanos <= 0 || r.IndexCells <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	out := t.TempDir() + "/BENCH_hotpath.json"
	if err := WriteBenchJSON(out, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back []HotPathBenchRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("artifact round-trip lost rows: %d != %d", len(back), len(rows))
	}
}

// TestDynamicChurnShape checks the E19 measurement small: every
// (size, process) cell present, zero correctness mismatches against
// the independent exact baseline, live timing on both sides, and a
// sane artifact round-trip.
func TestDynamicChurnShape(t *testing.T) {
	rows, err := MeasureDynamicChurn([]int{8, 16}, 12, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 2 sizes x 4 churn processes", len(rows))
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Fatalf("%s/n=%d: %d query mismatches vs the from-scratch baseline", r.Churn, r.Stations, r.Mismatches)
		}
		if r.ApplyNanos <= 0 || r.RebuildNanos <= 0 || r.Checkpoints == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.Incremental+r.Rebuilds != r.Events {
			t.Fatalf("%s/n=%d: %d incremental + %d rebuilds != %d events",
				r.Churn, r.Stations, r.Incremental, r.Rebuilds, r.Events)
		}
	}
	out := t.TempDir() + "/BENCH_dynamic.json"
	if err := WriteBenchJSON(out, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back []DynamicBenchRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("artifact round-trip lost rows: %d != %d", len(back), len(rows))
	}
}

// TestSchedComparisonShape checks the E20 measurement small: every
// (size, scheduler) cell present, zero validation or incremental-vs-
// scan mismatches, live build timing under both models, a feasibility
// race on the greedy rows, and a sane artifact round-trip.
func TestSchedComparisonShape(t *testing.T) {
	rows, err := MeasureSched([]int{32, 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 2 sizes x 3 schedulers", len(rows))
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Fatalf("%s/n=%d: %d mismatches between the incremental engine and the scan oracle",
				r.Scheduler, r.Links, r.Mismatches)
		}
		if r.SINRSlots <= 0 || r.ProtocolSlots <= 0 || r.SINRBuildNanos <= 0 || r.ProtoBuildNanos <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.Scheduler == "greedy" {
			if r.FeasIncNanos <= 0 || r.FeasScanNanos <= 0 || r.ProbeSlotSize <= 0 {
				t.Fatalf("greedy row missing the feasibility race: %+v", r)
			}
		} else if r.FeasIncNanos != 0 {
			t.Fatalf("%s row carries a feasibility race: %+v", r.Scheduler, r)
		}
	}
	out := t.TempDir() + "/BENCH_sched.json"
	if err := WriteBenchJSON(out, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back []SchedBenchRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("artifact round-trip lost rows: %d != %d", len(back), len(rows))
	}
}
