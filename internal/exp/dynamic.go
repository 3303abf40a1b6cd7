package exp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/verify"
	"repro/internal/workload"
)

// DefaultDynamicSizes is the network-size axis of the E19 churn
// comparison — the same constant-density axis as E18, up to 1024
// stations. The committed BENCH_dynamic.json trajectory is produced
// at these sizes; CI and tests pass a smaller axis.
var DefaultDynamicSizes = []int{16, 64, 256, 1024}

// DefaultDynamicEvents is the churn-trace length per (size, process)
// cell of E19.
const DefaultDynamicEvents = 64

// DefaultDynamicQueries is the per-checkpoint correctness-probe count
// of E19.
const DefaultDynamicQueries = 512

// DynamicBenchRow is one cell of the E19 churn comparison: a
// (stations, churn process) pair measuring the incremental Apply
// against the from-scratch engine rebuild it replaces, plus query
// correctness against an independent exact baseline at checkpoints
// along the trace. The JSON tags define the BENCH_dynamic.json
// artifact schema.
type DynamicBenchRow struct {
	Churn         string  `json:"churn"`
	Stations      int     `json:"stations"`
	Events        int     `json:"events"`
	ApplyNanos    int64   `json:"apply_ns_per_event"`
	RebuildNanos  int64   `json:"rebuild_ns_per_event"`
	Speedup       float64 `json:"speedup"`
	Incremental   int     `json:"incremental_applies"`
	Rebuilds      int     `json:"amortized_rebuilds"`
	GridDisabled  bool    `json:"grid_disabled,omitempty"`
	Checkpoints   int     `json:"checkpoints"`
	QueriesPerCkp int     `json:"queries_per_checkpoint"`
	Mismatches    int     `json:"mismatches"`
	FinalStations int     `json:"final_stations"`
}

// dynamicChurnWeights maps the E19 churn-process axis to
// (arrive, depart, power) weights.
var dynamicChurnProcesses = []struct {
	name          string
	arr, dep, pow float64
}{
	{"arrive", 1, 0, 0},
	{"depart", 0, 1, 0},
	{"power", 0, 0, 1},
	{"mix", 1, 1, 1},
}

// dynamicTruth answers one probe exactly and independently of the
// engine under test: the Observation 2.2 reduction over a fresh
// kd-tree for uniform beta > 1 station sets, the full SINR scan
// otherwise.
func dynamicTruth(net *core.Network, tree *kdtree.Tree, p geom.Point) core.Location {
	if net.IsUniform() && net.Beta() > 1 {
		return net.VoronoiLocate(p, tree)
	}
	return net.NaiveLocate(p)
}

// median returns the median of a duration sample.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// MeasureDynamicChurn runs the E19 measurement: for each network size
// a constant-density network seeds a dynamic engine, a churn trace of
// single-station deltas (per process: arrivals, departures, power
// walks, and their mix) is applied event by event, and each event is
// timed twice — the incremental Apply, and the from-scratch engine
// rebuild (core network + kd-tree + cover boxes + grid) a static
// architecture would pay for the same final station set. At
// checkpoints along the trace every probe query is checked against an
// independently computed exact answer; Mismatches must be zero.
func MeasureDynamicChurn(sizes []int, events, queries int) ([]DynamicBenchRow, error) {
	var rows []DynamicBenchRow
	for _, n := range sizes {
		for _, proc := range dynamicChurnProcesses {
			gen := workload.NewGenerator(int64(11000*n) + int64(len(proc.name)))
			net, box, err := hotPathNet(gen, n)
			if err != nil {
				return nil, err
			}
			dyn, err := dynamic.New(net)
			if err != nil {
				return nil, err
			}
			trace := gen.ChurnTrace(n, events, box, proc.arr, proc.dep, proc.pow, 0.25)
			probes := gen.QueryPoints(queries, box)
			// The exact scan is O(n^2) per no-reception probe; cap the
			// checkpoint cost where the scan is the baseline.
			checkQueries := queries
			if proc.pow > 0 && n >= 256 {
				checkQueries = queries / 4
			}
			every := events / 8
			if every < 1 {
				every = 1
			}

			row := DynamicBenchRow{
				Churn: proc.name, Stations: n, Events: len(trace),
				QueriesPerCkp: checkQueries,
			}
			applyTimes := make([]time.Duration, 0, len(trace))
			rebuildTimes := make([]time.Duration, 0, len(trace))
			for evi, ev := range trace {
				t0 := time.Now()
				snap, err := dyn.Apply(verify.Delta(ev))
				applyTimes = append(applyTimes, time.Since(t0))
				if err != nil {
					return nil, fmt.Errorf("E19 %s n=%d event %d: %w", proc.name, n, evi, err)
				}
				if snap.ApplyStats().Path == dynamic.PathRebuild {
					row.Rebuilds++
				} else {
					row.Incremental++
				}

				// The from-scratch baseline: rebuild the whole engine on
				// the same final station set.
				cur := snap.Network()
				pts := cur.Stations()
				powers := make([]float64, cur.NumStations())
				for i := range powers {
					powers[i] = cur.Power(i)
				}
				t0 = time.Now()
				scratchNet, err := core.NewNetwork(pts, cur.Noise(), cur.Beta(),
					core.WithAlpha(cur.Alpha()), core.WithPowers(powers))
				if err != nil {
					return nil, err
				}
				if _, err := dynamic.New(scratchNet); err != nil {
					return nil, err
				}
				rebuildTimes = append(rebuildTimes, time.Since(t0))

				if evi%every == 0 || evi == len(trace)-1 {
					row.Checkpoints++
					tree := kdtree.New(pts)
					for _, p := range probes[:checkQueries] {
						want := dynamicTruth(scratchNet, tree, p)
						if got := snap.Locate(p); got != want {
							row.Mismatches++
						}
					}
					if !snap.GridEnabled() {
						row.GridDisabled = true
					}
					row.FinalStations = snap.NumStations()
				}
			}
			row.ApplyNanos = medianDuration(applyTimes).Nanoseconds()
			row.RebuildNanos = medianDuration(rebuildTimes).Nanoseconds()
			if row.ApplyNanos > 0 {
				row.Speedup = float64(row.RebuildNanos) / float64(row.ApplyNanos)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// DynamicChurnComparison runs E19: incremental epoch maintenance
// against from-scratch rebuild under station churn, across network
// sizes at constant density and the four churn processes. The shape
// checks are the dynamic subsystem's contract: zero query mismatches
// against the independent exact baseline at every checkpoint, and — at
// production size (n >= 1024) — at least a 5x speedup of the
// incremental Apply over the full rebuild for single-station deltas.
// jsonPath, when non-empty, receives the BENCH_dynamic.json artifact.
func DynamicChurnComparison(sizes []int, events, queries int, jsonPath string) (*Table, error) {
	t := &Table{
		ID:         "E19",
		Title:      "Dynamic churn: incremental epoch apply vs full rebuild",
		PaperClaim: "copy-on-write delta maintenance preserves exact answers under churn at a fraction of the per-event rebuild cost",
		Headers:    []string{"churn", "n", "apply/ev", "rebuild/ev", "speedup", "inc", "reb", "mismatch", "final n"},
	}
	rows, err := MeasureDynamicChurn(sizes, events, queries)
	if err != nil {
		return nil, err
	}
	t.Pass = true
	for _, r := range rows {
		t.AddRow(
			r.Churn,
			fmt.Sprintf("%d", r.Stations),
			time.Duration(r.ApplyNanos).String(),
			time.Duration(r.RebuildNanos).String(),
			fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprintf("%d", r.Incremental),
			fmt.Sprintf("%d", r.Rebuilds),
			fmt.Sprintf("%d", r.Mismatches),
			fmt.Sprintf("%d", r.FinalStations),
		)
		if r.Mismatches != 0 {
			t.Pass = false
		}
		if r.Stations >= 1024 && r.Speedup < 5 {
			t.Pass = false
		}
	}
	if jsonPath != "" {
		if err := WriteBenchJSON(jsonPath, rows); err != nil {
			return nil, err
		}
		t.Note("wrote %s (%d rows)", jsonPath, len(rows))
	}
	checkpoints := 0
	if len(rows) > 0 {
		checkpoints = rows[0].Checkpoints // the events axis is shared, so every row checks alike
	}
	t.Note("apply = dynamic.Network.Apply (incremental below the churn threshold); rebuild = from-scratch engine on the same final set; answers checked at %d checkpoints/row", checkpoints)
	return t, nil
}
