package sinrdiag

import (
	"context"
	"math"
	"testing"
)

// TestFacadeEndToEnd walks the README quick-start path through the
// facade: build a network, query reception, build the Theorem 3
// locator, resolve queries.
func TestFacadeEndToEnd(t *testing.T) {
	net, err := NewUniform([]Point{Pt(0, 0), Pt(3, 1), Pt(-1, 2)}, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumStations() != 3 || net.Alpha() != DefaultAlpha {
		t.Fatalf("network = %v", net)
	}
	p := Pt(0.3, 0.1)
	heard, ok := net.HeardBy(p)
	if !ok || heard != 0 {
		t.Fatalf("HeardBy(%v) = %d, %v", p, heard, ok)
	}

	loc, err := net.BuildLocator(0.1)
	if err != nil {
		t.Fatal(err)
	}
	ans := loc.LocateExact(p)
	if ans.Kind != Reception || ans.Station != 0 {
		t.Fatalf("LocateExact = %+v", ans)
	}
	far := loc.Locate(Pt(50, 50))
	if far.Kind != NoReception {
		t.Fatalf("far point = %+v", far)
	}
}

func TestFacadeZoneAndBounds(t *testing.T) {
	net, err := NewUniform([]Point{Pt(0, 0), Pt(1, 0)}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	z, err := net.Zone(0)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := z.MeasuredFatness(128, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := FatnessBound(4)
	if err != nil {
		t.Fatal(err)
	}
	if phi > bound*(1+1e-6) {
		t.Errorf("fatness %v exceeds bound %v", phi, bound)
	}
	if math.Abs(bound-3) > 1e-12 {
		t.Errorf("FatnessBound(4) = %v, want 3", bound)
	}
}

func TestFacadeOptions(t *testing.T) {
	net, err := NewNetwork([]Point{Pt(0, 0), Pt(2, 0)}, 0, 2,
		WithPowers([]float64{1, 4}), WithAlpha(2))
	if err != nil {
		t.Fatal(err)
	}
	if net.IsUniform() {
		t.Error("mixed powers should not be uniform")
	}
	if net.Power(1) != 4 {
		t.Errorf("Power(1) = %v", net.Power(1))
	}
}

func TestFacadeConstructions(t *testing.T) {
	sStar, err := MergeStations(Pt(1, 0), Pt(-1, 0), Pt(0, 0.5), Pt(0, -0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sStar.X) {
		t.Error("merge returned NaN")
	}
	rep, err := ThreeStationAnalysis(Pt(1, 2), Pt(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DistinctPos > 2 {
		t.Errorf("three-station roots = %d", rep.DistinctPos)
	}
}

func TestFacadeDiagram(t *testing.T) {
	net, err := NewUniform([]Point{Pt(0, 0), Pt(1, 0)}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDiagram(net, 128, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumZones() != 2 {
		t.Fatalf("zones = %d", d.NumZones())
	}
	z := d.Zone(0)
	if z.Area <= 0 || z.Fatness() <= 1 {
		t.Errorf("zone info = %+v", z)
	}
	if got := len(d.CommunicationGraph()); got != 2 {
		t.Errorf("graph size = %d", got)
	}
}

// TestFacadeResolverDelegation checks the acceptance contract of the
// Resolver redesign at the facade: every old entry point (HeardBy,
// NaiveLocate, VoronoiLocate, BuildLocator+LocateExact) returns
// answers identical to its Resolver replacement, and the facade
// constructors/options round-trip.
func TestFacadeResolverDelegation(t *testing.T) {
	net, err := NewUniform([]Point{Pt(0, 0), Pt(3, 1), Pt(-1, 2), Pt(2, -2)}, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := net.BuildLocator(0.1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewExactResolver(net)
	if err != nil {
		t.Fatal(err)
	}
	locRes, err := NewLocatorResolver(net, WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	voro, err := NewResolver(ResolverVoronoi, net)
	if err != nil {
		t.Fatal(err)
	}
	if k := voro.Stats().Kind; k != ResolverVoronoi {
		t.Fatalf("voronoi resolver reports kind %v", k)
	}
	if locRes.Stats().Kind != ResolverLocator || locRes.Stats().Eps != 0.1 {
		t.Fatalf("locator stats = %+v", locRes.Stats())
	}

	ctx := context.Background()
	for i := -30; i <= 30; i++ {
		for j := -30; j <= 30; j++ {
			p := Pt(float64(i)/6, float64(j)/6)
			want := net.NaiveLocate(p)
			if got := exact.Resolve(ctx, p); got != want {
				t.Fatalf("exact resolver %v != NaiveLocate %v at %v", got, want, p)
			}
			if got := locRes.Resolve(ctx, p); got != loc.LocateExact(p) {
				t.Fatalf("locator resolver %v != LocateExact %v at %v", got, loc.LocateExact(p), p)
			}
			if got := voro.Resolve(ctx, p); got != net.VoronoiLocate(p, nil) {
				t.Fatalf("voronoi resolver %v != VoronoiLocate %v at %v", got, net.VoronoiLocate(p, nil), p)
			}
			idx, ok := net.HeardBy(p)
			if !ok {
				idx = NoStationHeard
			}
			if got := StationIndex(exact.Resolve(ctx, p)); got != idx {
				t.Fatalf("StationIndex %d != HeardBy %d at %v", got, idx, p)
			}
		}
	}

	for _, kind := range ResolverKinds() {
		parsed, err := ParseResolverKind(kind.String())
		if err != nil || parsed != kind {
			t.Fatalf("ParseResolverKind(%q) = %v, %v", kind.String(), parsed, err)
		}
		if _, err := NewResolver(kind, net, WithWorkers(2)); err != nil {
			t.Fatalf("NewResolver(%v): %v", kind, err)
		}
	}
	if DefaultUDGRadius(net) <= 0 {
		t.Fatal("DefaultUDGRadius must be positive")
	}
}

// TestFacadeScheduling walks the scheduling surface through the
// facade: derive links from a station set, schedule them under both
// reception models with every scheduler, validate, then repair after
// the link set changes.
func TestFacadeScheduling(t *testing.T) {
	stations := []Point{
		{X: 0, Y: 0}, {X: 6, Y: 1}, {X: -4, Y: 5}, {X: 3, Y: -6},
		{X: -5, Y: -3}, {X: 8, Y: 7}, {X: -8, Y: 2}, {X: 1, Y: 9},
	}
	links := DeriveLinks(stations, nil, 1)
	if len(links) != len(stations) {
		t.Fatalf("DeriveLinks: %d links for %d stations", len(links), len(stations))
	}

	sp, err := NewSINRScheduling(links, 0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewProtocolScheduling(links, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []SchedulingProblem{sp, pp} {
		for _, kind := range SchedulerKinds() {
			s, err := BuildSchedule(kind, f, ByLength(links, true))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if err := s.Validate(f); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if s.NumLinks() != len(links) {
				t.Fatalf("%v: %d of %d links scheduled", kind, s.NumLinks(), len(links))
			}
		}
	}

	// A slot answers trial placements incrementally.
	slot := sp.NewSlot()
	if !slot.Add(0) {
		t.Fatal("link 0 must fit an empty slot")
	}
	if slot.CanAdd(0) {
		t.Fatal("a slot member cannot be added twice")
	}

	// Shrink the instance: repair keeps survivors, drops the stale tail.
	s, err := BuildSchedule(SchedGreedy, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := NewSINRScheduling(links[:6], 0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	healed, stats, err := RepairSchedule(shrunk, s, DefaultSchedImprovePasses)
	if err != nil {
		t.Fatal(err)
	}
	if err := healed.Validate(shrunk); err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 2 || healed.NumLinks() != 6 {
		t.Fatalf("repair stats %+v, links %d", stats, healed.NumLinks())
	}

	for _, kind := range SchedulerKinds() {
		parsed, err := ParseSchedulerKind(kind.String())
		if err != nil || parsed != kind {
			t.Fatalf("ParseSchedulerKind(%q) = %v, %v", kind.String(), parsed, err)
		}
	}
	if _, err := ParseSchedulerKind("magic"); err == nil {
		t.Fatal("unknown scheduler kind must fail")
	}
}
