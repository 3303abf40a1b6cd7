package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shardindex"
)

// fuzzBytes reads a fuzz input front to back, yielding zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// coord decodes a coordinate in [-8, 8) on a 1/16 lattice, so stations
// collide and line up often.
func (b *fuzzBytes) coord() float64 { return float64(int8(b.next())) / 16 }

// power decodes a power in [1/4, 4).
func (b *fuzzBytes) power() float64 { return math.Exp2(float64(int(b.next())-128) / 64) }

// boxEdgeProbes returns the points from 2 ulps inside to 2 outside
// each edge of box b, on the axis-parallel lines through s.
func boxEdgeProbes(b shardindex.Box, s geom.Point) []geom.Point {
	var out []geom.Point
	for _, e := range []struct {
		v   float64
		onX bool
	}{{b.MinX, true}, {b.MaxX, true}, {b.MinY, false}, {b.MaxY, false}} {
		v := e.v
		for k := 0; k < 2; k++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		for k := 0; k < 5; k++ {
			if e.onX {
				out = append(out, geom.Pt(v, s.Y))
			} else {
				out = append(out, geom.Pt(s.X, v))
			}
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	return out
}

// FuzzApplyDelta drives the maintenance path with decoded networks and
// delta sequences. The first byte sets the station count (1 to 24),
// the second the noise (0.01 or 1e-30), beta (0.5, 1.5 or 3), alpha (2
// or 3) and uniform or unequal powers; then come the stations and a
// sequence of arrive, depart and power deltas. Each delta goes to an
// engine that never rebuilds and one at the default threshold, and
// after every Apply each snapshot must agree with its network's
// HeardBy at the edges of every cover box, at the extreme points of
// station 0's dominance discs and at random points.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{5, 0x06, 0, 0, 16, 0, 0, 16, 240, 240, 40, 40, 0, 1, 2, 33, 1, 2, 4, 20, 20})
	f.Add([]byte{2, 0x05, 0, 0, 100, 16, 0, 200, 1, 1, 1, 0, 0, 0, 2, 1, 30})
	f.Add([]byte{12, 0x1b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 2, 5, 9, 1, 3, 0, 7, 7, 200, 2, 0, 60, 1, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + int(in.next())%24
		flags := in.next()
		noise := 0.01
		if flags&1 != 0 {
			noise = 1e-30
		}
		beta := []float64{0.5, 1.5, 3}[int(flags>>1&3)%3]
		alpha := 2.0
		if flags&8 != 0 {
			alpha = 3
		}
		unequal := flags&16 != 0
		pts := make([]geom.Point, n)
		powers := make([]float64, n)
		for i := range pts {
			pts[i] = geom.Pt(in.coord(), in.coord())
			powers[i] = 1
			if unequal {
				powers[i] = in.power()
			}
		}
		net, err := core.NewNetwork(pts, noise, beta, core.WithAlpha(alpha), core.WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		var engines []*Network
		for _, opt := range []Option{WithRebuildFraction(math.Inf(1)), WithRebuildFraction(DefaultRebuildFraction)} {
			dyn, err := New(net, opt)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, dyn)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		check := func(step int) {
			for ei, dyn := range engines {
				snap := dyn.Snapshot()
				net := snap.Network()
				probes := discProbes(net, 1)
				for i, id := range snap.curToID {
					probes = append(probes, boxEdgeProbes(dyn.tab.boxes[id], net.Station(i))...)
				}
				for k := 0; k < 32; k++ {
					probes = append(probes, geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10))
				}
				for _, p := range probes {
					want := core.Location{Kind: core.NoReception}
					if i, ok := net.HeardBy(p); ok {
						want = core.Location{Kind: core.Reception, Station: i}
					}
					if got := snap.Locate(p); got != want {
						t.Fatalf("step %d engine %d (%v path) %v: Locate(%v) = %+v, HeardBy %+v",
							step, ei, snap.ApplyStats().Path, net, p, got, want)
					}
				}
			}
		}
		check(0)
		for step := 1; step <= 16 && len(in) > 0; step++ {
			n := engines[0].Snapshot().NumStations()
			var d Delta
			switch in.next() % 3 {
			case 0:
				st := Station{Pos: geom.Pt(in.coord(), in.coord())}
				if unequal {
					st.Power = in.power()
				}
				d.Add = []Station{st}
			case 1:
				i := int(in.next()) % n
				if n == 1 {
					continue
				}
				d.Remove = []int{i}
			default:
				d.SetPower = []PowerUpdate{{Station: int(in.next()) % n, Power: in.power()}}
			}
			for _, dyn := range engines {
				if _, err := dyn.Apply(d); err != nil {
					t.Fatalf("step %d: Apply(%+v): %v", step, d, err)
				}
			}
			check(step)
		}
	})
}
