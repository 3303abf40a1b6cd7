package workload

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestUniformInBoxBoundsAndDeterminism(t *testing.T) {
	box := geom.NewBox(geom.Pt(-2, 1), geom.Pt(3, 4))
	g1 := NewGenerator(42)
	pts := g1.UniformInBox(100, box)
	if len(pts) != 100 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !box.Contains(p) {
			t.Fatalf("point %v outside %v", p, box)
		}
	}
	// Same seed reproduces the same deployment.
	g2 := NewGenerator(42)
	pts2 := g2.UniformInBox(100, box)
	for i := range pts {
		if pts[i] != pts2[i] {
			t.Fatal("same seed produced different deployments")
		}
	}
	// Different seed differs.
	g3 := NewGenerator(43)
	pts3 := g3.UniformInBox(100, box)
	same := true
	for i := range pts {
		if pts[i] != pts3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical deployments")
	}
}

func TestUniformSeparated(t *testing.T) {
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(10, 10))
	g := NewGenerator(7)
	pts, err := g.UniformSeparated(20, box, 1.0)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := geom.Dist(pts[i], pts[j]); d < 1.0 {
				t.Fatalf("separation violated: %v", d)
			}
		}
	}
	// Infeasible density errors out instead of looping forever.
	if _, err := g.UniformSeparated(1000, geom.NewBox(geom.Pt(0, 0), geom.Pt(1, 1)), 0.5); err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestAuxiliaryDraws(t *testing.T) {
	g := NewGenerator(1)
	v := g.Float64()
	if v < 0 || v >= 1 {
		t.Errorf("Float64 = %v", v)
	}
	q := g.QueryPoints(5, geom.NewBox(geom.Pt(0, 0), geom.Pt(1, 1)))
	if len(q) != 5 {
		t.Errorf("QueryPoints len = %d", len(q))
	}
}

func TestHotspotPoints(t *testing.T) {
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(10, 10))
	g := NewGenerator(7)
	pts := g.HotspotPoints(2000, box, 3, 0.8, 0.2)
	if len(pts) != 2000 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !box.Contains(p) {
			t.Fatalf("hotspot point %v outside %v", p, box)
		}
	}
	// Skew sanity: with 80% of traffic in tight hotspots, the average
	// nearest-neighbor clustering must be far from uniform. Cheap proxy:
	// a large fraction of points must fall within 3 sigma of one of a
	// re-generated center set is not reproducible, so instead check that
	// some 1x1 cell of a 10x10 grid holds far more than the uniform
	// share of points.
	var grid [10][10]int
	for _, p := range pts {
		x, y := int(p.X), int(p.Y)
		if x > 9 {
			x = 9
		}
		if y > 9 {
			y = 9
		}
		grid[x][y]++
	}
	max := 0
	for x := range grid {
		for y := range grid[x] {
			if grid[x][y] > max {
				max = grid[x][y]
			}
		}
	}
	if max < 3*len(pts)/100 { // uniform share is 1% per cell
		t.Errorf("max cell holds %d of %d points; expected strong hotspot skew", max, len(pts))
	}
	// Determinism by seed.
	pts2 := NewGenerator(7).HotspotPoints(2000, box, 3, 0.8, 0.2)
	for i := range pts {
		if pts[i] != pts2[i] {
			t.Fatalf("hotspot points not reproducible at %d", i)
		}
	}
}

func TestMobilityTrace(t *testing.T) {
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(10, 10))
	g := NewGenerator(11)
	const walkers, steps, speed = 5, 40, 0.3
	trace := g.MobilityTrace(walkers, steps, box, speed)
	if len(trace) != walkers*steps {
		t.Fatalf("len = %d, want %d", len(trace), walkers*steps)
	}
	for _, p := range trace {
		if !box.Contains(p) {
			t.Fatalf("trace point %v outside %v", p, box)
		}
	}
	// Temporal locality: each walker moves at most speed per step
	// (waypoint arrivals can move less). Walker w's step-s position sits
	// at trace[s*walkers+w].
	for w := 0; w < walkers; w++ {
		for s := 1; s < steps; s++ {
			a := trace[(s-1)*walkers+w]
			b := trace[s*walkers+w]
			if d := geom.Dist(a, b); d > speed+1e-12 {
				t.Fatalf("walker %d step %d jumped %v > speed %v", w, s, d, speed)
			}
		}
	}
	if g.MobilityTrace(0, 10, box, 1) != nil {
		t.Error("zero walkers should return nil")
	}
	if g.MobilityTrace(2, 10, box, 0) != nil || g.MobilityTrace(2, 10, box, -1) != nil ||
		g.MobilityTrace(2, 10, box, math.NaN()) != nil || g.MobilityTrace(2, 10, box, math.Inf(1)) != nil {
		t.Error("invalid speed should return nil")
	}
	if math.IsNaN(trace[len(trace)-1].X) {
		t.Error("NaN in trace")
	}
}

// TestChurnTraceValidAndReproducible replays a trace against a virtual
// station set and checks every event is applicable at its position:
// departure and power indices in range, the floor respected, powers
// positive, and the same seed reproducing the same trace.
func TestChurnTraceValidAndReproducible(t *testing.T) {
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	trace := NewGenerator(42).ChurnTrace(6, 500, box, 1, 1, 1, 0.3)
	if len(trace) != 500 {
		t.Fatalf("trace length %d, want 500", len(trace))
	}
	count := 6
	kinds := map[ChurnKind]int{}
	for i, ev := range trace {
		kinds[ev.Kind]++
		switch ev.Kind {
		case ChurnArrive:
			if !box.Contains(ev.Pos) {
				t.Fatalf("event %d: arrival at %v outside box", i, ev.Pos)
			}
			if ev.Power <= 0 {
				t.Fatalf("event %d: arrival power %g", i, ev.Power)
			}
			count++
		case ChurnDepart:
			if ev.Station < 0 || ev.Station >= count {
				t.Fatalf("event %d: departure index %d of %d", i, ev.Station, count)
			}
			count--
			if count < 2 {
				t.Fatalf("event %d: station count fell to %d", i, count)
			}
		case ChurnPower:
			if ev.Station < 0 || ev.Station >= count {
				t.Fatalf("event %d: power index %d of %d", i, ev.Station, count)
			}
			if ev.Power < 0.125 || ev.Power > 8 {
				t.Fatalf("event %d: power %g outside clamp", i, ev.Power)
			}
		}
	}
	for k := ChurnArrive; k <= ChurnPower; k++ {
		if kinds[k] == 0 {
			t.Fatalf("no %v events in a mixed trace", k)
		}
	}
	again := NewGenerator(42).ChurnTrace(6, 500, box, 1, 1, 1, 0.3)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatalf("event %d not reproducible: %+v vs %+v", i, trace[i], again[i])
		}
	}
}

// TestChurnTraceRejectsDegenerateWeights: an all-zero (or otherwise
// non-positive) weighting must panic as documented, not silently
// degenerate into a pure power-walk trace.
func TestChurnTraceRejectsDegenerateWeights(t *testing.T) {
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(1, 1))
	for _, w := range [][3]float64{{0, 0, 0}, {-1, 1, 0}, {math.NaN(), 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChurnTrace(weights=%v) did not panic", w)
				}
			}()
			NewGenerator(1).ChurnTrace(4, 10, box, w[0], w[1], w[2], 0.3)
		}()
	}
}

// TestChurnTraceDepartureFloor: a departures-only trace must convert
// to arrivals at the floor instead of emptying the set.
func TestChurnTraceDepartureFloor(t *testing.T) {
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(1, 1))
	trace := NewGenerator(1).ChurnTrace(4, 50, box, 0, 1, 0, 0)
	count := 4
	for i, ev := range trace {
		switch ev.Kind {
		case ChurnDepart:
			count--
		case ChurnArrive:
			count++
		default:
			t.Fatalf("event %d: unexpected %v in a departures-only trace", i, ev.Kind)
		}
		if count < 2 {
			t.Fatalf("event %d: count %d below floor", i, count)
		}
	}
}
