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
// both apply paths. The probes include every degenerate point of the
// strongest-station reduction: on a station, on two co-located
// stations, an exact energy tie, and points so far away that the
// energies are 0.
func TestQuickLocateMatchesHeardBy(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	paths := map[ApplyPath]int{}
	checked, heard := 0, 0
	for _, alpha := range []float64{2, 3} {
		for _, beta := range []float64{0.5, 1, 1.5, 3} {
			for _, noise := range []float64{0, 0.01} {
				sigma := 1.5 * rng.Float64()
				logNormal := func() float64 { return math.Exp(sigma * rng.NormFloat64()) }
				uniformPt := func() geom.Point { return geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5) }

				// Stations 0 and 1 share a location; at tie, station 2
				// (power 2^alpha, distance 2) and station 3 (power 1,
				// distance 1) deliver energy exactly 1 each. Deltas touch
				// only stations from index 4 on, so both survive.
				shared, tie := uniformPt(), geom.Pt(9, 7)
				pts := []geom.Point{shared, shared, geom.Pt(7, 7), geom.Pt(10, 7)}
				powers := []float64{logNormal(), logNormal(), math.Pow(2, alpha), 1}
				for k := 16 + rng.Intn(32); k > 0; k-- {
					pts = append(pts, uniformPt())
					powers = append(powers, logNormal())
				}
				net, err := core.NewNetwork(pts, noise, beta, core.WithAlpha(alpha), core.WithPowers(powers))
				if err != nil {
					t.Fatal(err)
				}
				dyn, err := New(net)
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
							t.Fatalf("%v epoch %d: Locate(%v) = %+v, HeardBy %+v", net, snap.Epoch(), p, got, want)
						}
					}
					if step == 12 {
						break
					}

					n := snap.NumStations()
					var d Delta
					for k := 1 + rng.Intn(3); k > 0; k-- {
						d.SetPower = append(d.SetPower, PowerUpdate{Station: 4 + rng.Intn(n-4), Power: logNormal()})
					}
					switch rng.Intn(3) {
					case 0:
						d.Add = []Station{{Pos: uniformPt(), Power: logNormal()}}
					case 1:
						d.Remove = []int{4 + rng.Intn(n-4)}
					}
					if snap, err = dyn.Apply(d); err != nil {
						t.Fatal(err)
					}
					paths[snap.ApplyStats().Path]++
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
