package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestQuickLocateMatchesHeardBy pins Snapshot.Locate to the scan
// oracle — Network.HeardBy of the epoch's from-scratch network — on
// random networks with log-normal powers (spread up to 1.5), across
// alpha in {2, 3}, beta in {0.5, 1, 1.5, 3} and noise in {0, 0.01},
// through chains of deltas that re-power, add and remove stations over
// both apply paths. Four layouts: dense networks of 20 to 51
// stations, one-station networks, sparse ones whose far stations add
// less interference near station 0 than half an ulp of the noise, and
// pairs at unit spacing (plus near arrivals) whose noise, when
// present, is 1e-30, so each zone reaches the dominance disc that
// bounds its box. The probes include every degenerate point of the
// strongest-station reduction (on a station, on two co-located
// stations, an exact energy tie, points so far away that the energies
// are 0) and, on noisy one-station and sparse networks, the points a
// few ulps either side of each cover-box edge, and on pairs of each
// dominance disc's extreme points, where only the box's rounding
// margin keeps the grid's H- exit exact.
func TestQuickLocateMatchesHeardBy(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	paths := map[ApplyPath]int{}
	checked, heard := 0, 0
	for _, alpha := range []float64{2, 3} {
		for _, beta := range []float64{0.5, 1, 1.5, 3} {
			for _, noise := range []float64{0, 0.01} {
				for _, layout := range []string{"dense", "one", "sparse", "pair"} {
					sigma := 1.5 * rng.Float64()
					logNormal := func() float64 { return math.Exp(sigma * rng.NormFloat64()) }
					uniformPt := func() geom.Point { return geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5) }
					// A far station of a sparse network: at 10^11 (alpha 2)
					// or 10^7 (alpha 3) its energy near station 0 is below
					// 1e-20, under half an ulp of the noise 0.01.
					farPt := func() geom.Point {
						return geom.PolarPoint(geom.Point{}, math.Pow(10, 19-4*alpha)*(1+rng.Float64()), 2*math.Pi*rng.Float64())
					}

					// Dense: stations 0 and 1 share a location; at tie,
					// station 2 (power 2^alpha, distance 2) and station 3
					// (power 1, distance 1) deliver energy exactly 1 each.
					// Deltas touch only stations from index fixed on, so
					// these survive.
					shared, tie := uniformPt(), geom.Pt(9, 7)
					var pts []geom.Point
					var powers []float64
					fixed := 1
					netNoise := noise
					var opts []Option
					switch layout {
					case "dense":
						pts = []geom.Point{shared, shared, geom.Pt(7, 7), geom.Pt(10, 7)}
						powers = []float64{logNormal(), logNormal(), math.Pow(2, alpha), 1}
						for k := 16 + rng.Intn(32); k > 0; k-- {
							pts = append(pts, uniformPt())
							powers = append(powers, logNormal())
						}
						fixed = 4
					case "one":
						pts, powers = []geom.Point{shared}, []float64{logNormal()}
					case "sparse":
						pts, powers = []geom.Point{shared}, []float64{logNormal()}
						for k := 1 + rng.Intn(3); k > 0; k-- {
							pts = append(pts, farPt())
							powers = append(powers, logNormal())
						}
					case "pair":
						pts = []geom.Point{shared, geom.PolarPoint(shared, 1, 2*math.Pi*rng.Float64())}
						powers = []float64{logNormal(), logNormal()}
						if noise > 0 {
							netNoise = 1e-30
						}
						// Two stations churn past the default threshold on
						// every delta; half the pairs stay incremental.
						if rng.Intn(2) == 0 {
							opts = append(opts, WithRebuildFraction(math.Inf(1)))
						}
					}
					net, err := core.NewNetwork(pts, netNoise, beta, core.WithAlpha(alpha), core.WithPowers(powers))
					if err != nil {
						t.Fatal(err)
					}
					dyn, err := New(net, opts...)
					if err != nil {
						t.Fatal(err)
					}
					snap := dyn.Snapshot()
					for step := 0; ; step++ {
						net := snap.Network()
						probes := []geom.Point{shared, tie, geom.Pt(1e150, 0), geom.Pt(-1e200, 1e200)}
						for i := 0; i < net.NumStations(); i++ {
							s := net.Station(i)
							probes = append(probes, s, geom.PolarPoint(s, 0.5*rng.Float64(), 2*math.Pi*rng.Float64()))
						}
						// Box edges of the first four stations, where the
						// interference is too small to keep the zone off its
						// box (on a dense network it always is).
						for i := 0; noise > 0 && (layout == "one" || layout == "sparse") && i < min(4, net.NumStations()); i++ {
							probes = append(probes, edgeProbes(net.Station(i), zoneRadius(net, i))...)
						}
						if layout == "pair" {
							probes = append(probes, discProbes(net, 4)...)
						}
						for k := 0; k < 32; k++ {
							probes = append(probes, geom.Pt(rng.Float64()*14-7, rng.Float64()*14-7))
						}
						for _, p := range probes {
							want := core.Location{Kind: core.NoReception}
							if i, ok := net.HeardBy(p); ok {
								want = core.Location{Kind: core.Reception, Station: i}
								heard++
							}
							checked++
							if got := snap.Locate(p); got != want {
								t.Fatalf("%s %v epoch %d: Locate(%v) = %+v, HeardBy %+v", layout, net, snap.Epoch(), p, got, want)
							}
						}
						if step == 12 {
							break
						}

						n := snap.NumStations()
						var d Delta
						switch layout {
						case "dense":
							for k := 1 + rng.Intn(3); k > 0; k-- {
								d.SetPower = append(d.SetPower, PowerUpdate{Station: fixed + rng.Intn(n-fixed), Power: logNormal()})
							}
							switch rng.Intn(3) {
							case 0:
								d.Add = []Station{{Pos: uniformPt(), Power: logNormal()}}
							case 1:
								d.Remove = []int{fixed + rng.Intn(n-fixed)}
							}
						case "one":
							d.SetPower = []PowerUpdate{{Station: 0, Power: logNormal()}}
						case "sparse":
							// Re-power station 0 (its box edges move) and add
							// or remove a far station.
							d.SetPower = []PowerUpdate{{Station: 0, Power: logNormal()}}
							if n > 1 && rng.Intn(2) == 0 {
								d.Remove = []int{1 + rng.Intn(n-1)}
							} else {
								d.Add = []Station{{Pos: farPt(), Power: logNormal()}}
							}
						case "pair":
							// Re-power one station, up or down, and add a
							// near station or remove one, keeping a pair.
							d.SetPower = []PowerUpdate{{Station: rng.Intn(n), Power: logNormal()}}
							switch rng.Intn(3) {
							case 0:
								d.Add = []Station{{Pos: geom.PolarPoint(shared, 0.5+rng.Float64(), 2*math.Pi*rng.Float64()), Power: logNormal()}}
							case 1:
								if n > 2 {
									d.Remove = []int{rng.Intn(n)}
								}
							}
						}
						if snap, err = dyn.Apply(d); err != nil {
							t.Fatal(err)
						}
						paths[snap.ApplyStats().Path]++
					}
				}
			}
		}
	}
	if paths[PathIncremental] == 0 || paths[PathRebuild] == 0 {
		t.Fatalf("apply paths %v: the deltas must exercise both", paths)
	}
	if heard == 0 || heard == checked {
		t.Fatalf("%d of %d probes heard: the probe set misses one side of the decision", heard, checked)
	}
}

// edgeProbes returns the points from 4 ulps inside to 8 ulps outside
// each of the four edges of the square of half-side r around s, on the
// axis-parallel lines through s: the points where a cover box without
// a rounding margin dismisses what Network.HeardBy hears.
func edgeProbes(s geom.Point, r float64) []geom.Point {
	var out []geom.Point
	for _, e := range []struct {
		edge, dir float64
		onX       bool
	}{
		{s.X + r, 1, true}, {s.X - r, -1, true}, {s.Y + r, 1, false}, {s.Y - r, -1, false},
	} {
		v := e.edge
		for k := 0; k < 4; k++ {
			v = math.Nextafter(v, -e.dir*math.Inf(1))
		}
		for k := -4; k <= 8; k++ {
			if e.onX {
				out = append(out, geom.Pt(v, s.Y))
			} else {
				out = append(out, geom.Pt(s.X, v))
			}
			v = math.Nextafter(v, e.dir*math.Inf(1))
		}
	}
	return out
}

// zoneRadius is the half-side of station i's noise-limited cover box,
// (psi/(beta*N))^(1/alpha), computed as the unmargined box of the
// snapshot's grid once was: the probes of edgeProbes straddle it.
func zoneRadius(net *core.Network, i int) float64 {
	return math.Pow(net.Power(i)/(net.Beta()*net.Noise()), 1/net.Alpha())
}

// TestCoverBoxEdgeAgreesWithHeardBy is the regression test for the
// cover box's rounding margin. On a one-station network the
// interference sum is 0, so nothing hides the float gap between the
// box edge and the boundary of the zone Heard evaluates: without the
// margin, points 1 to 4 ulps past the edge are heard by HeardBy but
// dismissed as H- by the grid (about 7% of these probes).
func TestCoverBoxEdgeAgreesWithHeardBy(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	checked, heard := 0, 0
	for k := 0; k < 1500; k++ {
		s := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		noise := math.Exp(rng.Float64()*8 - 6)
		beta := 1.5 + 4*rng.Float64()
		alpha := float64(2 + k%2)
		net, err := core.NewNetwork([]geom.Point{s}, noise, beta, core.WithAlpha(alpha))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		snap := dyn.Snapshot()
		if !snap.GridEnabled() {
			t.Fatalf("%v: grid disabled on a noisy network", net)
		}
		for _, p := range edgeProbes(s, zoneRadius(net, 0)) {
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

// TestFarFieldSnapshotMatchesHeardBy pins the snapshots that carry the
// certified far-field check — rebuild-path epochs of at least
// farFieldMinStations stations — to the scan oracle, under uniform and
// log-normal powers, on Theorem 4.1 annulus points (uniform power),
// points near stations and points over the whole deployment; and pins
// which epochs carry the check: the initial build and every rebuild,
// not incremental epochs.
func TestFarFieldSnapshotMatchesHeardBy(t *testing.T) {
	rng := rand.New(rand.NewSource(1024))
	for _, sigma := range []float64{0, 0.5} {
		n := farFieldMinStations + 76
		side := 3 * math.Sqrt(float64(n))
		pts := make([]geom.Point, n)
		powers := make([]float64, n)
		for j := range pts {
			pts[j] = geom.Pt((rng.Float64()-0.5)*side, (rng.Float64()-0.5)*side)
			powers[j] = math.Exp(sigma * rng.NormFloat64())
		}
		net, err := core.NewNetwork(pts, 0.01, 3, core.WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := New(net, WithRebuildFraction(0.001))
		if err != nil {
			t.Fatal(err)
		}
		snap := dyn.Snapshot()
		for step := 0; step < 3; step++ {
			net := snap.Network()
			if want := snap.ApplyStats().Path == PathRebuild; (snap.far != nil) != want {
				t.Fatalf("sigma=%g epoch %d (%v path): far-field check present %v", sigma, snap.Epoch(), snap.ApplyStats().Path, snap.far != nil)
			}
			var probes []geom.Point
			for k := 0; k < 300; k++ {
				i := rng.Intn(net.NumStations())
				s := net.Station(i)
				probes = append(probes,
					geom.PolarPoint(s, 2*rng.Float64(), 2*math.Pi*rng.Float64()),
					geom.Pt((rng.Float64()-0.5)*side, (rng.Float64()-0.5)*side))
				if b, err := net.TheoremBounds(i); err == nil {
					r := b.DeltaLower + rng.Float64()*(math.Min(b.DeltaUpper, b.Kappa/2)-b.DeltaLower)
					probes = append(probes, geom.PolarPoint(s, r, 2*math.Pi*rng.Float64()))
				}
			}
			heard := 0
			for _, p := range probes {
				want := core.Location{Kind: core.NoReception}
				if i, ok := net.HeardBy(p); ok {
					want = core.Location{Kind: core.Reception, Station: i}
					heard++
				}
				if got := snap.Locate(p); got != want {
					t.Fatalf("sigma=%g epoch %d: Locate(%v) = %+v, HeardBy %+v", sigma, snap.Epoch(), p, got, want)
				}
			}
			if heard == 0 || heard == len(probes) {
				t.Fatalf("sigma=%g: %d of %d probes heard: the probes miss one side of the decision", sigma, heard, len(probes))
			}
			// An arrival (incremental while churn stays under the
			// threshold), then a burst that forces a rebuild.
			d := Delta{Add: []Station{{Pos: net.Station(0)}}}
			if step == 1 {
				d = Delta{Remove: []int{1, 2, 3}}
			}
			if snap, err = dyn.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	}
}
