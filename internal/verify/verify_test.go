package verify

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testNet is n separated stations in a 10x10 box, uniform power.
func testNet(t *testing.T, n int, noise, beta float64) *core.Network {
	t.Helper()
	gen := workload.NewGenerator(int64(n))
	stations, err := gen.UniformSeparated(n, geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5)), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewUniform(stations, noise, beta)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDelta(t *testing.T) {
	pos := geom.Pt(1, 2)
	cases := []struct {
		ev   workload.ChurnEvent
		want dynamic.Delta
	}{
		{workload.ChurnEvent{Kind: workload.ChurnArrive, Pos: pos, Power: 2},
			dynamic.Delta{Add: []dynamic.Station{{Pos: pos, Power: 2}}}},
		{workload.ChurnEvent{Kind: workload.ChurnDepart, Station: 3},
			dynamic.Delta{Remove: []int{3}}},
		{workload.ChurnEvent{Kind: workload.ChurnPower, Station: 4, Power: 0.5},
			dynamic.Delta{SetPower: []dynamic.PowerUpdate{{Station: 4, Power: 0.5}}}},
	}
	for _, tc := range cases {
		if got := Delta(tc.ev); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Delta(%+v) = %+v, want %+v", tc.ev, got, tc.want)
		}
	}
}

// TestMirrorLockstep: the mirror keys generations by the server's
// version, which may be offset from the engine epoch, and rejects a
// server whose version or epoch falls out of step.
func TestMirrorLockstep(t *testing.T) {
	net := testNet(t, 8, 0.01, 3)
	m, err := NewMirror(net, 5) // the name pre-existed: versions are offset
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Delta(workload.ChurnEvent{Kind: workload.ChurnDepart, Station: 0}), 6, 2); err != nil {
		t.Fatalf("in-step delta: %v", err)
	}
	if snap, err := m.Snapshot(6); err != nil || snap.NumStations() != 7 {
		t.Fatalf("version 6: %v, %v", snap, err)
	}
	m.Swap(7)
	if snap, err := m.Snapshot(7); err != nil || snap.NumStations() != 7 {
		t.Fatalf("swapped version 7: %v, %v", snap, err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	bad := Delta(workload.ChurnEvent{Kind: workload.ChurnDepart, Station: 1})
	if err := m.Apply(bad, 9, 3); err == nil || !strings.Contains(err.Error(), "expected version 8") {
		t.Fatalf("skipped version: %v", err)
	}
	m2, _ := NewMirror(net, 1)
	if err := m2.Apply(bad, 2, 7); err == nil || !strings.Contains(err.Error(), "local mirror epoch 2") {
		t.Fatalf("epoch out of step: %v", err)
	}
	if err := m2.Apply(Delta(workload.ChurnEvent{Kind: workload.ChurnDepart, Station: 99}), 2, 2); err == nil {
		t.Fatal("mirror accepted a delta the engine rejects")
	}
	if _, err := m2.Snapshot(42); err == nil {
		t.Fatal("Snapshot of an unknown version succeeded")
	}
}

// served answers pts on net through the scan oracle.
func served(t *testing.T, net *core.Network, pts []geom.Point) []int {
	t.Helper()
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = core.NoStationHeard
		if s, ok := net.HeardBy(p); ok {
			out[i] = s
		}
	}
	return out
}

// TestCheckAnswers: answers are checked against the generation that
// gave them, failed batches are skipped, and udg answers are checked
// against a local UDG resolver.
func TestCheckAnswers(t *testing.T) {
	net := testNet(t, 12, 0.01, 3)
	m, err := NewMirror(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Delta(workload.ChurnEvent{Kind: workload.ChurnDepart, Station: 0}), 2, 2); err != nil {
		t.Fatal(err)
	}
	gen2, _ := m.Snapshot(2)
	// Points next to station 0, heard by it only in generation 1.
	s0 := net.Station(0)
	pts := []geom.Point{s0, geom.Pt(s0.X+0.01, s0.Y), geom.Pt(s0.X, s0.Y-0.01)}
	first, second := served(t, net, pts), served(t, gen2.Network(), pts)
	if first[0] != 0 || second[0] == 0 {
		t.Fatalf("station 0's own position answers %d then %d", first[0], second[0])
	}
	batches := []Batch{
		{Version: 1, Points: pts, Served: first},
		{Version: 2, Points: pts, Served: second},
		{Version: 0, Points: pts, Served: []int{7, 7, 7}}, // failed: no answers
	}
	if ms, err := m.CheckAnswers(resolve.KindDynamic, 0, batches); err != nil || len(ms) != 0 {
		t.Fatalf("correct answers: %v, %v", ms, err)
	}

	// Generation 1's answers served as generation 2's are wrong there.
	batches[1].Served = first
	ms, err := m.CheckAnswers(resolve.KindLocator, 0, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(pts) {
		t.Fatalf("stale answers: %d mismatches, want %d", len(ms), len(pts))
	}
	if got, want := ms[0], (Mismatch{Version: 2, Point: pts[0], Served: 0, Want: second[0]}); got != want {
		t.Fatalf("mismatch = %+v, want %+v", got, want)
	}

	if _, err := m.CheckAnswers(resolve.KindExact, 0, []Batch{{Version: 3, Points: pts, Served: first}}); err == nil {
		t.Fatal("a batch from an unmirrored version passed")
	}

	// udg answers are held to a local UDG resolver, not the scan.
	udg, err := resolve.NewUDG(net)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]core.Location, len(pts))
	if err := udg.ResolveBatch(context.Background(), pts, locs); err != nil {
		t.Fatal(err)
	}
	answers := make([]int, len(pts))
	for i, l := range locs {
		answers[i] = resolve.StationIndex(l)
	}
	if ms, err := m.CheckAnswers(resolve.KindUDG, 0, []Batch{{Version: 1, Points: pts, Served: answers}}); err != nil || len(ms) != 0 {
		t.Fatalf("udg answers: %v, %v", ms, err)
	}
	if _, name := Reference(resolve.KindUDG); name != "the local UDG resolver" {
		t.Fatalf("udg reference = %q", name)
	}
	if _, name := Reference(resolve.KindVoronoi); name != "the local scan oracle" {
		t.Fatalf("voronoi reference = %q", name)
	}
}

// scheduleFor builds what a server answers for p on version's
// generation: the greedy schedule of sched.NewInstance.
func scheduleFor(t *testing.T, m *Mirror, version uint64, p sched.Params) *sched.Schedule {
	t.Helper()
	snap, err := m.Snapshot(version)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(snap.Network(), p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.BuildSchedule(sched.KindGreedy, inst.Problem, inst.Order)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckScheduleOverrides: a schedule requested with β, noise or
// protocol-radius overrides validates when the check is given those
// overrides, and fails against the network's values and the default
// radii, which is all a check that ignores the request could use.
func TestCheckScheduleOverrides(t *testing.T) {
	net := testNet(t, 48, 0.1, 3)
	m, err := NewMirror(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		overrides sched.Params
	}{
		{"beta", sched.Params{Beta: 1.2}},
		{"noise", sched.Params{Noise: 1e-4}},
		{"radii", sched.Params{Model: sched.ModelProtocol, Conn: 1.5, Interf: 1.5}},
		{"radii at link scale 0.5", sched.Params{Model: sched.ModelProtocol, LinkLen: 0.5, Interf: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := scheduleFor(t, m, 1, tc.overrides)
			if err := m.CheckSchedule(1, tc.overrides, net.NumStations(), s.Slots); err != nil {
				t.Fatalf("served schedule fails with its own overrides: %v", err)
			}
			defaults := sched.Params{Model: tc.overrides.Model, LinkLen: tc.overrides.LinkLen}
			if err := m.CheckSchedule(1, defaults, net.NumStations(), s.Slots); err == nil {
				t.Fatalf("schedule packed under %+v also passes the defaults; the case shows nothing", tc.overrides)
			}
		})
	}
}

// TestCheckScheduleReportsTamperedSlot: each way of corrupting a served
// schedule is reported by slot and link.
func TestCheckScheduleReportsTamperedSlot(t *testing.T) {
	net := testNet(t, 32, 0.01, 3)
	m, err := NewMirror(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumStations()
	cases := []struct {
		name   string
		tamper func(slots [][]int) string // returns what the error must say
	}{
		{"moved", func(slots [][]int) string {
			// Greedy put the last slot's first link there because no
			// earlier slot could take it.
			last := len(slots) - 1
			li := slots[last][0]
			slots[0] = append(slots[0], li)
			slots[last] = slots[last][1:]
			return "slot 0 infeasible: link "
		}},
		{"dropped", func(slots [][]int) string {
			li := slots[1][0]
			slots[1] = slots[1][1:]
			return fmt.Sprintf("link %d missing", li)
		}},
		{"duplicated", func(slots [][]int) string {
			li := slots[0][0]
			slots[1] = append(slots[1], li)
			return fmt.Sprintf("link %d scheduled twice (slots 0 and 1)", li)
		}},
		{"out of range", func(slots [][]int) string {
			slots[1][0] = n
			return fmt.Sprintf("slot 1 holds link %d, outside [0, %d)", n, n)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := scheduleFor(t, m, 1, sched.Params{})
			if len(s.Slots) < 2 {
				t.Fatalf("schedule has %d slots; the test needs two", len(s.Slots))
			}
			want := tc.tamper(s.Slots)
			err := m.CheckSchedule(1, sched.Params{}, n, s.Slots)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("tampered schedule: %v, want an error saying %q", err, want)
			}
		})
	}

	s := scheduleFor(t, m, 1, sched.Params{})
	if err := m.CheckSchedule(1, sched.Params{}, n+1, s.Slots); err == nil || !strings.Contains(err.Error(), "covers 33 links") {
		t.Fatalf("wrong link count: %v", err)
	}
	if err := m.CheckSchedule(2, sched.Params{}, n, s.Slots); err == nil {
		t.Fatal("a schedule from an unmirrored version passed")
	}
	if err := m.CheckSchedule(1, sched.Params{LinkLen: -1}, n, s.Slots); err == nil {
		t.Fatal("invalid parameters passed")
	}
}
