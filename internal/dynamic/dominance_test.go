package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// disc returns the centre and radius of station i's beta-dominance
// disc against station k, the points where E_i >= beta*E_k, and false
// when the region is not a disc (beta*psi_k <= psi_i).
func disc(net *core.Network, i, k int) (geom.Point, float64, bool) {
	a, s := net.Station(i), net.Station(k)
	l := math.Pow(net.Power(i)/(net.Beta()*net.Power(k)), 2/net.Alpha())
	if l >= 1 {
		return geom.Point{}, 0, false
	}
	c := geom.Pt(a.X+l*(a.X-s.X)/(1-l), a.Y+l*(a.Y-s.Y)/(1-l))
	return c, math.Sqrt(l) * geom.Dist(a, s) / (1 - l), true
}

// discProbes returns edgeProbes on each disc of a station among the
// first few of net against any other station: points 4 ulps inside to
// 8 ulps outside the disc's extreme points, where the zone of a
// station whose interference and noise are dominated by one other
// station touches its box.
func discProbes(net *core.Network, first int) []geom.Point {
	var out []geom.Point
	for i := 0; i < min(first, net.NumStations()); i++ {
		for k := 0; k < net.NumStations(); k++ {
			if c, r, ok := disc(net, i, k); ok && k != i {
				out = append(out, edgeProbes(c, r)...)
			}
		}
	}
	return out
}

// TestDominanceBoxEdgesAgreeWithHeardBy is the regression test for the
// dominance disc's rounding margin. On a two-station network whose
// noise (1e-30) is far below either energy near the zone, Heard is the
// float disc test E_i >= beta*E_k, and the zone reaches its box at the
// disc's extreme points: without the margin, points a few ulps inside
// the zone fall outside the box and the grid dismisses what HeardBy
// hears.
func TestDominanceBoxEdgesAgreeWithHeardBy(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	checked, heard := 0, 0
	for k := 0; k < 1000; k++ {
		a := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		pts := []geom.Point{a, geom.PolarPoint(a, 1, 2*math.Pi*rng.Float64())}
		powers := []float64{1, 1}
		if k%4 >= 2 {
			powers = []float64{math.Exp(rng.NormFloat64()), math.Exp(rng.NormFloat64())}
		}
		alpha := float64(2 + k%2)
		net, err := core.NewNetwork(pts, 1e-30, 1.5+3*rng.Float64(), core.WithAlpha(alpha), core.WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		snap := dyn.Snapshot()
		for _, p := range discProbes(net, 2) {
			want := core.Location{Kind: core.NoReception}
			if i, ok := net.HeardBy(p); ok {
				want = core.Location{Kind: core.Reception, Station: i}
				heard++
			}
			checked++
			if got := snap.Locate(p); got != want {
				t.Fatalf("%v: Locate(%v) = %+v, HeardBy %+v (%d probes checked)", net, p, got, want, checked)
			}
		}
	}
	if heard == 0 || heard == checked {
		t.Fatalf("%d of %d probes heard: the probes must straddle the zone boundary", heard, checked)
	}
}

// TestBoxesFollowTheirDominators: stations A(0,0), B(1,0) and C(-1,0)
// at uniform power, so B bounds A's +x side and A bounds C's +x side.
// B departs: A's zone grows past its box, which must be re-derived.
// Then A's power drops: C's zone grows past the box A bounded, so C's
// box must follow A's identity through A's own re-derivation. Then B
// returns at lower power and A's power rises back: nothing shrinks
// that is not re-derived. After each delta, on both apply paths, every
// probe agrees with HeardBy, and the station the delta frees is heard
// at points its previous box excluded.
func TestBoxesFollowTheirDominators(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(-1, 0)}
	steps := []struct {
		delta Delta
		grown geom.Point // the station whose zone grows (by position)
	}{
		{Delta{Remove: []int{1}}, geom.Pt(0, 0)},
		{Delta{SetPower: []PowerUpdate{{Station: 0, Power: 0.2}}}, geom.Pt(-1, 0)},
		{Delta{Add: []Station{{Pos: geom.Pt(1, 0), Power: 0.5}}}, geom.Point{}},
		{Delta{SetPower: []PowerUpdate{{Station: 0, Power: 1}}}, geom.Pt(0, 0)},
		{Delta{SetPower: []PowerUpdate{{Station: 2, Power: 0.3}}}, geom.Pt(0, 0)},
	}
	for _, fraction := range []float64{math.Inf(1), 0} {
		net, err := core.NewUniform(pts, 0.01, 3)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := New(net, WithRebuildFraction(fraction))
		if err != nil {
			t.Fatal(err)
		}
		if snap := dyn.Snapshot(); dyn.tab.deps[snap.curToID[0]][2] != dyn.tab.ident[snap.curToID[1]] {
			t.Fatalf("deps of A %v: B must bound its +x side", dyn.tab.deps[snap.curToID[0]])
		}
		for si, st := range steps {
			prev := dyn.Snapshot()
			prevBoxes := dyn.tab.boxes[:len(prev.idToCur):len(prev.idToCur)]
			snap, err := dyn.Apply(st.delta)
			if err != nil {
				t.Fatal(err)
			}
			net := snap.Network()
			gained := 0
			for x := -7.0; x <= 7; x += 0.05 {
				for y := -7.0; y <= 7; y += 0.05 {
					p := geom.Pt(x, y)
					want := core.Location{Kind: core.NoReception}
					if i, ok := net.HeardBy(p); ok {
						want = core.Location{Kind: core.Reception, Station: i}
						if net.Station(i) == st.grown {
							for j := 0; j < prev.NumStations(); j++ {
								if prev.Network().Station(j) == st.grown && !prevBoxes[prev.curToID[j]].Contains(p.X, p.Y) {
									gained++
								}
							}
						}
					}
					if got := snap.Locate(p); got != want {
						t.Fatalf("fraction %g step %d: Locate(%v) = %+v, HeardBy %+v", fraction, si, p, got, want)
					}
				}
			}
			if st.grown != (geom.Point{}) && gained == 0 {
				t.Fatalf("fraction %g step %d: the zone at %v gained no point outside its old box", fraction, si, st.grown)
			}
		}
	}
}

// TestUniformTrafficTakesNoHitExit: on the E18 network of 64 stations
// (constant density, noise 0.01, beta = 3), more than 40% of uniform
// query points lie in no cover box, so the snapshot answers them H-
// from one grid cell without an energy or a SINR check.
func TestUniformTrafficTakesNoHitExit(t *testing.T) {
	const n = 64
	gen := workload.NewGenerator(7000 * n)
	side := 3 * math.Sqrt(n)
	box := geom.NewBox(geom.Pt(-side/2, -side/2), geom.Pt(side/2, side/2))
	pts, err := gen.UniformSeparated(n, box, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewUniform(pts, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	snap := dyn.Snapshot()
	probes := gen.QueryPoints(20000, box)
	exits := 0
	for _, p := range probes {
		hit := false
		for _, id := range snap.grid.Candidates(p.X, p.Y) {
			hit = hit || snap.grid.Contains(id, p.X, p.Y)
		}
		if !hit {
			exits++
		}
	}
	if frac := float64(exits) / float64(len(probes)); frac <= 0.4 {
		t.Fatalf("no-hit exit on %.3f of uniform points, want > 0.4", frac)
	}
}

// TestEveryBoxHoldsItsStation: a cover box contains its own station
// (the dominance disc contains it), on the rebuild path and after
// incremental churn of every delta kind.
func TestEveryBoxHoldsItsStation(t *testing.T) {
	net := startNet(t, 24, 4)
	dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(41)
	for evi, ev := range append([]workload.ChurnEvent{{}}, gen.ChurnTrace(24, 40, testBox, 1, 1, 1, 0.5)...) {
		if evi > 0 {
			if _, err := dyn.Apply(deltaFromEvent(ev)); err != nil {
				t.Fatal(err)
			}
		}
		snap := dyn.Snapshot()
		for i, id := range snap.curToID {
			if s := snap.Network().Station(i); !dyn.tab.boxes[id].Contains(s.X, s.Y) {
				t.Fatalf("event %d: station %d at %v outside its box %+v", evi, i, s, dyn.tab.boxes[id])
			}
		}
	}
}
