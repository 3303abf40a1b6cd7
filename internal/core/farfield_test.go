package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// ffTally counts how the far-field check settled its probes, so a test
// can require that the bound, not only the exact fallback, answered.
type ffTally struct{ heard, unheard, fallback int }

// check asserts FarField.Heard(i, p) == Network.Heard(i, p) and that a
// certain decision is the exact answer, and counts the decision.
func (c *ffTally) check(t *testing.T, f *FarField, net *Network, i int, p geom.Point) {
	t.Helper()
	want := net.Heard(i, p)
	heard, certain := f.decide(i, p)
	switch {
	case !certain:
		c.fallback++
	case heard:
		c.heard++
	default:
		c.unheard++
	}
	if certain && heard != want {
		t.Fatalf("%v: certified decision for station %d at %v is %v, Heard says %v", net, i, p, heard, want)
	}
	if got := f.Heard(i, p); got != want {
		t.Fatalf("%v: FarField.Heard(%d, %v) = %v, Heard says %v", net, i, p, got, want)
	}
}

// boundaryProbes walks from station i along direction theta, bisects
// the float x coordinate down to two adjacent floats where Heard(i, .)
// flips, and returns the points 4 ulps either side of the flip plus
// points at relative offsets 1e-7 to 1e-2 of the flip's distance: the
// points where a rounding error in the bound would show.
func boundaryProbes(net *Network, i int, theta, reach float64) []geom.Point {
	s := net.Station(i)
	c, sn := math.Cos(theta), math.Sin(theta)
	at := func(r float64) geom.Point { return geom.Pt(s.X+r*c, s.Y+r*sn) }
	lo, hi := 0.0, reach
	if net.Heard(i, at(hi)) {
		return []geom.Point{at(hi)}
	}
	// Heard at r = 0 (p on the station) unless a peer shares it; the
	// flip lies somewhere in (lo, hi].
	for k := 0; k < 200; k++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if net.Heard(i, at(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	var out []geom.Point
	r := lo
	for k := 0; k < 4; k++ {
		r = math.Nextafter(r, 0)
	}
	for k := 0; k < 10; k++ {
		out = append(out, at(r))
		r = math.Nextafter(r, math.Inf(1))
	}
	for _, rel := range []float64{1e-7, 1e-5, 1e-3, 1e-2} {
		out = append(out, at(lo*(1-rel)), at(lo*(1+rel)))
	}
	return out
}

// ffNetwork draws n stations uniformly in a square of side 3*sqrt(n)
// (the constant density of the serving benchmarks), with log-normal
// powers of spread sigma, or uniform power 1 when sigma is 0.
func ffNetwork(t testing.TB, rng *rand.Rand, n int, sigma, noise, beta float64) *Network {
	t.Helper()
	side := 3 * math.Sqrt(float64(n))
	pts := make([]geom.Point, n)
	powers := make([]float64, n)
	for j := range pts {
		pts[j] = geom.Pt((rng.Float64()-0.5)*side, (rng.Float64()-0.5)*side)
		powers[j] = 1
		if sigma > 0 {
			powers[j] = math.Exp(sigma * rng.NormFloat64())
		}
	}
	net, err := NewNetwork(pts, noise, beta, WithPowers(powers))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestFarFieldMatchesHeard is the certification property test: the
// far-field check answers exactly Network.Heard on boundary-bisected
// probes (within a few ulps of the float decision and at small relative
// offsets) and on points near stations. The networks are the planted
// ones of the strongest-station tests, with their probes — small
// enough that nearly every station is summed exactly, in tree order,
// not index order — and networks of 300 to 1500 stations where far
// nodes carry most of the interference. Powers are uniform or
// log-normal, beta in {0.5, 1, 1.5, 3}, noise in {0, 0.01}. Both
// certified answers must occur, so the bound is what the test checks,
// not the fallback.
func TestFarFieldMatchesHeard(t *testing.T) {
	rng := rand.New(rand.NewSource(2222))
	var small, boundary, near ffTally
	for _, beta := range []float64{0.5, 1, 1.5, 3} {
		for _, noise := range []float64{0, 0.01} {
			for trial := 0; trial < 4; trial++ {
				sigma := 0.0
				if trial%2 == 1 {
					sigma = 1.5 * rng.Float64()
				}
				// Planted: co-located stations 0 and 1, an exact energy
				// tie at distance 2 and 1 from stations 2 and 3.
				net, shared, tie := plantedNetwork(t, rng, sigma, noise, beta, 2)
				f := NewFarField(net)
				if f == nil {
					t.Fatalf("%v: no far-field tree", net)
				}
				for _, p := range plantedProbes(rng, net, shared, tie) {
					for _, i := range []int{0, 2, 3, rng.Intn(net.NumStations())} {
						small.check(t, f, net, i, p)
					}
				}
				for k := 0; k < 24; k++ {
					i := 2 + rng.Intn(net.NumStations()-2)
					for _, p := range boundaryProbes(net, i, 2*math.Pi*rng.Float64(), 30) {
						small.check(t, f, net, i, p)
					}
				}

				net = ffNetwork(t, rng, 300+rng.Intn(1200), sigma, noise, beta)
				f = NewFarField(net)
				for k := 0; k < 24; k++ {
					i := rng.Intn(net.NumStations())
					for _, p := range boundaryProbes(net, i, 2*math.Pi*rng.Float64(), 30) {
						boundary.check(t, f, net, i, p)
						if s, ok := net.Strongest(p); ok && s != i {
							boundary.check(t, f, net, s, p)
						}
					}
				}
				// Points within 3 of a station, checked for their
				// strongest station: most of them are off the boundary,
				// where the bound must settle the answer.
				for k := 0; k < 256; k++ {
					p := geom.PolarPoint(net.Station(rng.Intn(net.NumStations())), 3*rng.Float64(), 2*math.Pi*rng.Float64())
					s, _ := net.Strongest(p)
					near.check(t, f, net, s, p)
				}
			}
		}
	}
	t.Logf("planted: %+v; boundary: %+v; near: %+v", small, boundary, near)
	for name, c := range map[string]ffTally{"planted": small, "boundary": boundary, "near": near} {
		if c.heard == 0 || c.unheard == 0 || c.fallback == 0 {
			t.Errorf("%s probes: decisions %+v; they must reach both certified answers and the fallback", name, c)
		}
	}
	if total := near.heard + near.unheard + near.fallback; 10*near.fallback > total {
		t.Errorf("near probes: %d of %d fell back; the bound must settle most points off the boundary", near.fallback, total)
	}
}

// TestFarFieldTree pins the tree's shape: depth-first nodes whose skip
// pointers close their subtrees, children that partition their parent,
// boxes and powers that cover their stations, leaves of at most
// farFieldBucket stations, and pos a permutation into tree order. The
// layouts include duplicate-heavy ones (a lattice, every station on
// one point) that stress quickselect's equal keys.
func TestFarFieldTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layouts := map[string]func(j int) geom.Point{
		"uniform": func(int) geom.Point { return geom.Pt(rng.Float64()*100, rng.Float64()*100) },
		"lattice": func(j int) geom.Point { return geom.Pt(float64(j%7), float64(j%5)) },
		"line":    func(j int) geom.Point { return geom.Pt(float64(j), 0) },
		"point":   func(int) geom.Point { return geom.Pt(3, 4) },
	}
	for name, at := range layouts {
		for _, n := range []int{1, 31, 32, 33, 200, 1000} {
			pts := make([]geom.Point, n)
			powers := make([]float64, n)
			for j := range pts {
				pts[j], powers[j] = at(j), 0.5+rng.Float64()
			}
			net, err := NewNetwork(pts, 0.01, 2, WithPowers(powers))
			if err != nil {
				t.Fatal(err)
			}
			f := NewFarField(net)
			seen := make([]bool, n)
			for j, k := range f.pos {
				if seen[k] || f.pts[k] != net.Station(j) || ffPower(f, k) != net.Power(j) {
					t.Fatalf("%s n=%d: station %d maps to tree position %d badly", name, n, j, k)
				}
				seen[k] = true
			}
			if end := checkFFNode(t, f, 0); end != len(f.nodes) {
				t.Fatalf("%s n=%d: the root's subtree ends at %d of %d nodes", name, n, end, len(f.nodes))
			}
		}
	}
}

// ffPower is the power of the station at tree position k.
func ffPower(f *FarField, k int32) float64 {
	if f.pw == nil {
		return f.psi
	}
	return f.pw[k]
}

// checkFFNode checks the subtree at node k and returns its skip.
func checkFFNode(t *testing.T, f *FarField, k int) int {
	t.Helper()
	nd := f.nodes[k]
	var power float64
	for m := nd.lo; m < nd.hi; m++ {
		p := f.pts[m]
		if p.X < nd.minX || p.X > nd.maxX || p.Y < nd.minY || p.Y > nd.maxY {
			t.Fatalf("node %d: station at %v outside its box", k, p)
		}
		power += ffPower(f, m)
	}
	if math.Abs(power-nd.power) > 1e-12*power {
		t.Fatalf("node %d: power %v, stations sum to %v", k, nd.power, power)
	}
	if int(nd.skip) == k+1 {
		if nd.hi-nd.lo > farFieldBucket || nd.hi <= nd.lo {
			t.Fatalf("node %d: leaf of %d stations", k, nd.hi-nd.lo)
		}
		return k + 1
	}
	left := f.nodes[k+1]
	mid := checkFFNode(t, f, k+1)
	right := f.nodes[mid]
	if left.lo != nd.lo || left.hi != right.lo || right.hi != nd.hi {
		t.Fatalf("node %d [%d, %d): children [%d, %d) and [%d, %d) do not partition it", k, nd.lo, nd.hi, left.lo, left.hi, right.lo, right.hi)
	}
	if end := checkFFNode(t, f, mid); end != int(nd.skip) {
		t.Fatalf("node %d: skip %d, subtree ends at %d", k, nd.skip, end)
	}
	return int(nd.skip)
}

// TestSelectRank pins quickselect's contract on random, sorted,
// reversed and constant keys, with the build's partition budget and
// with budgets of 0 and 1, which end in the sort it falls back to.
func TestSelectRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 3, 10, 100, 1000} {
		for kind, key := range []func(j int) float64{
			func(int) float64 { return rng.Float64() },
			func(j int) float64 { return float64(j) },
			func(j int) float64 { return float64(-j) },
			func(int) float64 { return 1 },
			func(j int) float64 { return float64(j % 3) },
		} {
			for _, k := range []int{0, m / 2, m - 1} {
				for _, budget := range []int{0, 1, 2 * bits.Len(uint(m))} {
					ents := make([]ffEntry, m)
					for j := range ents {
						ents[j] = ffEntry{geom.Pt(0, key(j)), int32(j)}
					}
					selectRank(ents, k, true, budget)
					for j, e := range ents {
						if (j < k && e.pt.Y > ents[k].pt.Y) || (j > k && e.pt.Y < ents[k].pt.Y) {
							t.Fatalf("m=%d kind %d k=%d budget %d: entry %d (%v) on the wrong side of %v", m, kind, k, budget, j, e.pt.Y, ents[k].pt.Y)
						}
					}
				}
			}
		}
	}
}

// TestNewFarFieldCoverage: networks outside the proof's range get no
// tree, and points outside it take the exact path.
func TestNewFarFieldCoverage(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 4)}
	for _, tc := range []struct {
		name string
		pts  []geom.Point
		opts []Option
		beta float64
	}{
		{"alpha 3", pts, []Option{WithAlpha(3)}, 2},
		{"far station", append([]geom.Point{geom.Pt(1e40, 0)}, pts...), nil, 2},
		{"tiny power", pts, []Option{WithPowers([]float64{1, 1e-40, 1})}, 2},
		{"huge beta", pts, nil, 1e40},
	} {
		net, err := NewNetwork(tc.pts, 0.01, tc.beta, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if NewFarField(net) != nil {
			t.Errorf("%s: got a far-field tree outside the certified range", tc.name)
		}
	}
	net, err := NewNetwork(pts, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFarField(net)
	if f == nil {
		t.Fatal("no far-field tree for an ordinary network")
	}
	for _, p := range []geom.Point{geom.Pt(1e200, 0), geom.Pt(math.NaN(), 1), geom.Pt(0, 0), geom.Pt(1e-300, 0)} {
		if _, certain := f.decide(0, p); certain {
			t.Errorf("decide(0, %v) is certain; points out of range must take the exact path", p)
		}
		if got, want := f.Heard(0, p), net.Heard(0, p); got != want {
			t.Errorf("Heard(0, %v) = %v, exact %v", p, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Heard(1, geom.Pt(2.5, 0.1)) }); allocs != 0 {
		t.Errorf("FarField.Heard allocates %g times per call", allocs)
	}
}

// annulusProbes draws m query points in the Theorem 4.1 annulus of
// random stations of a uniform network, between DeltaLower and
// min(DeltaUpper, kappa/2), where the zone boundary lies (the
// dense-boundary workload's points), each with its station: the
// nearest, so the only candidate.
func annulusProbes(tb testing.TB, rng *rand.Rand, net *Network, m int) ([]geom.Point, []int) {
	tb.Helper()
	pts, ids := make([]geom.Point, m), make([]int, m)
	for k := range pts {
		i := rng.Intn(net.NumStations())
		b, err := net.TheoremBounds(i)
		if err != nil {
			tb.Fatal(err)
		}
		r := b.DeltaLower + rng.Float64()*(math.Min(b.DeltaUpper, b.Kappa/2)-b.DeltaLower)
		pts[k], ids[k] = geom.PolarPoint(net.Station(i), r, 2*math.Pi*rng.Float64()), i
	}
	return pts, ids
}

// ffSink keeps the benchmarked checks from being optimized away.
var ffSink bool

// BenchmarkFarField compares one candidate check on Theorem 4.1
// annulus points of a constant-density uniform network (noise 0.01,
// beta 3, stations at least 0.05 apart): the exact kernel
// (Network.Heard) against the far-field check, which also reports the
// fraction of points that fell back to the exact sum; build times
// NewFarField.
func BenchmarkFarField(b *testing.B) {
	for _, n := range []int{512, 1024, 2048, 10000} {
		side := 3 * math.Sqrt(float64(n))
		box := geom.NewBox(geom.Pt(-side/2, -side/2), geom.Pt(side/2, side/2))
		st, err := workload.NewGenerator(int64(n)).UniformSeparated(n, box, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		net, err := NewUniform(st, 0.01, 3)
		if err != nil {
			b.Fatal(err)
		}
		pts, ids := annulusProbes(b, rand.New(rand.NewSource(7)), net, 4096)
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				ffSink = net.Heard(ids[k%len(pts)], pts[k%len(pts)])
			}
		})
		b.Run(fmt.Sprintf("build/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				NewFarField(net)
			}
		})
		f := NewFarField(net)
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				ffSink = f.Heard(ids[k%len(pts)], pts[k%len(pts)])
			}
			fallback := 0
			for k, p := range pts {
				if _, certain := f.decide(ids[k], p); !certain {
					fallback++
				}
			}
			b.ReportMetric(float64(fallback)/float64(len(pts)), "fallback/op")
		})
	}
}
