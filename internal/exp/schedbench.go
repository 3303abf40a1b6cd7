package exp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/workload"
)

// DefaultSchedSizes is the instance-size axis of the E20 scheduling
// sweep used by tests and CI. The committed BENCH_sched.json
// trajectory is produced at 1000, 10000 and 100000 links
// (sinrbench -sched-sizes 1000,10000,100000).
var DefaultSchedSizes = []int{256, 1024}

// schedBenchAlpha is the path-loss exponent of the E20 instances. At
// alpha=2 the planar interference sum diverges logarithmically with
// the field radius, so constant-density instances become uniformly
// infeasible as n grows; alpha=3 converges and keeps slot populations
// meaningful at n=10^5.
const schedBenchAlpha = 3

// SchedBenchRow is one cell of the E20 scheduling sweep: one
// (scheduler, instance size) pair, scheduled under both interference
// models. The feasibility-throughput fields (greedy rows only) race
// one incremental trial placement against the naive O(k²) scan on the
// largest SINR slot of the greedy schedule. The JSON tags define the
// BENCH_sched.json artifact schema.
type SchedBenchRow struct {
	Scheduler       string  `json:"scheduler"`
	Links           int     `json:"links"`
	SINRSlots       int     `json:"sinr_slots"`
	ProtocolSlots   int     `json:"protocol_slots"`
	SINRBuildNanos  int64   `json:"sinr_build_ns"`
	ProtoBuildNanos int64   `json:"protocol_build_ns"`
	ProbeSlotSize   int     `json:"probe_slot_size,omitempty"`
	FeasIncNanos    int64   `json:"feas_inc_ns_per_trial,omitempty"`
	FeasScanNanos   int64   `json:"feas_scan_ns_per_trial,omitempty"`
	FeasSpeedup     float64 `json:"feas_speedup,omitempty"`
	Mismatches      int     `json:"mismatches"`
}

// schedInstances builds the E20 instances: n links at constant density
// (side grows with sqrt(n)), lengths in [0.5, 1.5), under the SINR
// and the protocol model.
func schedInstances(gen *workload.Generator, n int) (sinr, proto *sched.Instance, err error) {
	side := 3 * math.Sqrt(float64(n))
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(side, side))
	links := randomLinks(gen, n, box, 0.5, 1.5)
	ch := sched.Channel{Beta: 2, Noise: 0.0001, Alpha: schedBenchAlpha}
	if sinr, err = sched.NewLinkInstance(links, sched.Params{}, ch); err != nil {
		return nil, nil, err
	}
	proto, err = sched.NewLinkInstance(links, sched.Params{Model: sched.ModelProtocol}, ch)
	return sinr, proto, err
}

// checkSchedule validates s and cross-checks the incremental
// feasibility path against the naive scan, returning the number of
// disagreements (0 on a correct engine). Full-schedule scan
// validation is O(sum k²); beyond scanCap links the scan cross-check
// samples sampleSlots slots instead of covering all of them.
func checkSchedule(f sched.Problem, s *sched.Schedule, links int) int {
	const (
		scanCap     = 4096
		sampleSlots = 8
	)
	mismatches := 0
	if err := s.Validate(f); err != nil {
		mismatches++
	}
	if s.NumLinks() != links {
		mismatches++
	}
	stride := 1
	if links > scanCap && len(s.Slots) > sampleSlots {
		stride = len(s.Slots) / sampleSlots
	}
	for si := 0; si < len(s.Slots); si += stride {
		if f.SlotFeasible(s.Slots[si]) != f.SlotFeasibleScan(s.Slots[si]) {
			mismatches++
		}
	}
	return mismatches
}

// timeTrials reports the per-call cost of fn over trials calls.
func timeTrials(trials int, fn func(int)) int64 {
	t0 := time.Now()
	for i := 0; i < trials; i++ {
		fn(i)
	}
	return time.Since(t0).Nanoseconds() / int64(trials)
}

// MeasureSched runs the E20 measurement: for each instance size and
// each scheduler kind, build a schedule under the SINR and the
// protocol model (timed), validate both against the feasibility
// oracles (cross-checking incremental against scan answers), and — on
// the greedy rows — race one incremental trial placement against the
// naive O(k²) scan recheck on the largest SINR slot, which is the
// operation the incremental refactor replaces inside every scheduler
// inner loop.
func MeasureSched(sizes []int) ([]SchedBenchRow, error) {
	var rows []SchedBenchRow
	for _, n := range sizes {
		gen := workload.NewGenerator(int64(12000 * (n + 1)))
		si, pi, err := schedInstances(gen, n)
		if err != nil {
			return nil, err
		}
		for _, kind := range sched.Kinds() {
			row := SchedBenchRow{Scheduler: kind.String(), Links: n}

			t0 := time.Now()
			ss, err := sched.BuildSchedule(kind, si.Problem, si.Order)
			row.SINRBuildNanos = time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("E20 %s n=%d sinr: %w", kind, n, err)
			}
			row.SINRSlots = ss.NumSlots()
			row.Mismatches += checkSchedule(si.Problem, ss, n)

			t0 = time.Now()
			ps, err := sched.BuildSchedule(kind, pi.Problem, pi.Order)
			row.ProtoBuildNanos = time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("E20 %s n=%d protocol: %w", kind, n, err)
			}
			row.ProtocolSlots = ps.NumSlots()
			row.Mismatches += checkSchedule(pi.Problem, ps, n)

			if kind == sched.KindGreedy {
				measureFeasibility(si.Problem, ss, &row)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// measureFeasibility fills the greedy row's trial-placement race: the
// incremental CanAdd against the naive scan of the same (slot, probe)
// sets, on the largest slot of the SINR schedule. Scan trials are
// capped — each costs O(k²) — with agreement checked on the trials
// both sides ran.
func measureFeasibility(sp sched.Problem, ss *sched.Schedule, row *SchedBenchRow) {
	largest := 0
	for si := range ss.Slots {
		if len(ss.Slots[si]) > len(ss.Slots[largest]) {
			largest = si
		}
	}
	members := ss.Slots[largest]
	row.ProbeSlotSize = len(members)
	inSlot := make(map[int]bool, len(members))
	for _, li := range members {
		inSlot[li] = true
	}
	var probes []int
	for li := 0; li < sp.NumLinks() && len(probes) < 256; li++ {
		if !inSlot[li] {
			probes = append(probes, li)
		}
	}
	if len(probes) == 0 {
		return
	}
	slot := sp.NewSlot()
	for _, li := range members {
		slot.Add(li)
	}
	incTrials := 2048
	scanTrials := incTrials
	if k := len(members); k > 0 {
		if scanTrials > 1<<19/k {
			scanTrials = 1 << 19 / k
		}
	}
	if scanTrials < 4 {
		scanTrials = 4
	}
	scanSet := append(append([]int{}, members...), 0)
	// Agreement first (counts into Mismatches), then the timed races.
	for i := 0; i < scanTrials; i++ {
		p := probes[i%len(probes)]
		scanSet[len(scanSet)-1] = p
		if slot.CanAdd(p) != sp.SlotFeasibleScan(scanSet) {
			row.Mismatches++
		}
	}
	row.FeasIncNanos = timeTrials(incTrials, func(i int) {
		slot.CanAdd(probes[i%len(probes)])
	})
	row.FeasScanNanos = timeTrials(scanTrials, func(i int) {
		scanSet[len(scanSet)-1] = probes[i%len(probes)]
		sp.SlotFeasibleScan(scanSet)
	})
	if row.FeasIncNanos > 0 {
		row.FeasSpeedup = float64(row.FeasScanNanos) / float64(row.FeasIncNanos)
	}
}

// SchedComparison runs E20: the three schedulers over the incremental
// feasibility engines, SINR versus protocol model, at constant
// density. The shape checks are the refactor's contract: zero
// validation or incremental-vs-scan mismatches anywhere, greedy SINR
// schedules no longer than protocol ones up to n = 10^4 (the paper's
// motivating claim, E14 scaled up — beyond that the comparison
// genuinely crosses over: the protocol model's constant-radius
// constraints are purely local so its slot count saturates at
// constant density, while the SINR model keeps paying slowly-growing
// accumulated far-field interference), and — at n >= 10^4, where the
// old O(k²) recheck hurts — at least a 10x speedup of the incremental
// trial placement over the scan. jsonPath, when non-empty, receives
// the BENCH_sched.json artifact.
func SchedComparison(sizes []int, jsonPath string) (*Table, error) {
	t := &Table{
		ID:         "E20",
		Title:      "Scheduling at scale: incremental slot engines, SINR vs protocol",
		PaperClaim: "physical-model scheduling stays tractable at n=10^5 once slot feasibility is incremental (Sec. 1.1, refs [8,12,13])",
		Headers:    []string{"sched", "n", "sinr slots", "proto slots", "sinr build", "slot k", "inc/trial", "scan/trial", "speedup", "mismatch"},
	}
	rows, err := MeasureSched(sizes)
	if err != nil {
		return nil, err
	}
	t.Pass = true
	for _, r := range rows {
		incS, scanS, speedup := "-", "-", "-"
		slotK := "-"
		if r.FeasIncNanos > 0 {
			incS = time.Duration(r.FeasIncNanos).String()
			scanS = time.Duration(r.FeasScanNanos).String()
			speedup = fmt.Sprintf("%.1fx", r.FeasSpeedup)
			slotK = fmt.Sprintf("%d", r.ProbeSlotSize)
		}
		t.AddRow(
			r.Scheduler,
			fmt.Sprintf("%d", r.Links),
			fmt.Sprintf("%d", r.SINRSlots),
			fmt.Sprintf("%d", r.ProtocolSlots),
			time.Duration(r.SINRBuildNanos).String(),
			slotK, incS, scanS, speedup,
			fmt.Sprintf("%d", r.Mismatches),
		)
		if r.Mismatches != 0 {
			t.Pass = false
		}
		if r.Scheduler == sched.KindGreedy.String() {
			if r.Links <= 10000 && r.SINRSlots > r.ProtocolSlots {
				t.Pass = false
			}
			if r.Links >= 10000 && r.FeasSpeedup < 10 {
				t.Pass = false
			}
		}
	}
	if jsonPath != "" {
		if err := WriteBenchJSON(jsonPath, rows); err != nil {
			return nil, err
		}
		t.Note("wrote %s (%d rows)", jsonPath, len(rows))
	}
	t.Note("alpha=%d instances at constant density; scan cross-check samples slots above n=4096; feasibility race on the largest greedy SINR slot; SINR<=protocol asserted up to n=10^4 (local protocol constraints saturate while SINR interference accumulates)", schedBenchAlpha)
	return t, nil
}
