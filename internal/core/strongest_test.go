package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

// scanOracle is the definition of reception written out as a literal
// loop: the first station whose SINR reaches beta.
func scanOracle(n *Network, p geom.Point) (int, bool) {
	for i := 0; i < n.NumStations(); i++ {
		if n.SINR(i, p) >= n.Beta() {
			return i, true
		}
	}
	return 0, false
}

// plantedNetwork draws a random network for the single-candidate
// property tests: 3 to 64 stations in [-5, 5]^2 with log-normal powers
// of spread sigma, after four planted ones. Stations 0 and 1 share a
// location; station 2 (power 2^alpha) and station 3 (power 1) are 3
// apart on an axis, so at tie — distance 2 and 1 from them — both
// energies are exactly 1.
func plantedNetwork(t *testing.T, rng *rand.Rand, sigma, noise, beta, alpha float64) (net *Network, shared, tie geom.Point) {
	t.Helper()
	shared = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
	pts := []geom.Point{shared, shared, geom.Pt(7, 7), geom.Pt(10, 7)}
	powers := []float64{math.Exp(sigma * rng.NormFloat64()), math.Exp(sigma * rng.NormFloat64()), math.Pow(2, alpha), 1}
	for k := 3 + rng.Intn(62); k > 0; k-- {
		pts = append(pts, geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5))
		powers = append(powers, math.Exp(sigma*rng.NormFloat64()))
	}
	net, err := NewNetwork(pts, noise, beta, WithAlpha(alpha), WithPowers(powers))
	if err != nil {
		t.Fatal(err)
	}
	tie = geom.Pt(9, 7)
	if e2, e3 := net.Energy(2, tie), net.Energy(3, tie); e2 != 1 || e3 != 1 {
		t.Fatalf("alpha=%g: planted tie energies %v and %v, want exactly 1", alpha, e2, e3)
	}
	return net, shared, tie
}

// plantedProbes returns the probe points of the property tests: every
// station, points near each station, the shared location, the energy
// tie, uniform points, and two far points. At 1e200 d^2 overflows to
// +Inf and every energy is 0; at 1e150 d^2 = 1e300, so alpha = 3
// energies underflow to 0 and alpha = 2 ones are about 1e-300.
func plantedProbes(rng *rand.Rand, net *Network, shared, tie geom.Point) []geom.Point {
	probes := []geom.Point{shared, tie, geom.Pt(1e150, 0), geom.Pt(-1e200, 1e200)}
	for i := 0; i < net.NumStations(); i++ {
		s := net.Station(i)
		probes = append(probes, s, geom.PolarPoint(s, 0.5*rng.Float64(), 2*math.Pi*rng.Float64()))
	}
	for k := 0; k < 64; k++ {
		probes = append(probes, geom.Pt(rng.Float64()*14-7, rng.Float64()*14-7))
	}
	return probes
}

// TestQuickHeardByMatchesLiteralScan pins HeardBy's early-exit scan,
// and for beta > 1 the strongest-station reduction (Strongest plus one
// Heard) and VoronoiLocate, to the literal SINR loop on random
// non-uniform networks across alpha, beta and noise.
func TestQuickHeardByMatchesLiteralScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	checked, heard := 0, 0
	for _, alpha := range []float64{2, 3} {
		for _, beta := range []float64{0.5, 1, 1.5, 3} {
			for _, noise := range []float64{0, 0.01} {
				for trial := 0; trial < 8; trial++ {
					sigma := 1.5 * rng.Float64()
					net, shared, tie := plantedNetwork(t, rng, sigma, noise, beta, alpha)
					tree := kdtree.New(net.Stations())
					for _, p := range plantedProbes(rng, net, shared, tie) {
						wi, wok := scanOracle(net, p)
						checked++
						if wok {
							heard++
						}
						if gi, gok := net.HeardBy(p); gok != wok || gi != wi {
							t.Fatalf("%v sigma=%.2f: HeardBy(%v) = (%d, %v), literal scan (%d, %v)", net, sigma, p, gi, gok, wi, wok)
						}
						want := locationOf(wi, wok)
						if got := net.VoronoiLocate(p, tree); got != want {
							t.Fatalf("%v sigma=%.2f: VoronoiLocate(%v) = %+v, literal scan %+v", net, sigma, p, got, want)
						}
						if beta <= 1 {
							continue
						}
						s, ok := net.Strongest(p)
						if got := ok && net.Heard(s, p); got != wok || (wok && s != wi) {
							t.Fatalf("%v sigma=%.2f: Strongest(%v) = %d, heard %v; literal scan (%d, %v)", net, sigma, p, s, got, wi, wok)
						}
					}
				}
			}
		}
	}
	if heard == 0 || heard == checked {
		t.Fatalf("%d of %d probes heard: the probe set misses one side of the decision", heard, checked)
	}
}

// locationOf builds the Location a (station, ok) answer stands for.
func locationOf(i int, ok bool) Location {
	if ok {
		return Location{Kind: Reception, Station: i}
	}
	return Location{Kind: NoReception}
}

// TestStrongest pins the candidate rule: the largest energy wins, the
// lowest index breaks exact ties, +Inf energies (p on a station) win,
// and only a NaN point has no candidate.
func TestStrongest(t *testing.T) {
	net, err := NewNetwork([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 5), geom.Pt(0, 5)}, 0.01, 3,
		WithPowers([]float64{1, 4, 0.5, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(1, 0), 0},      // E = 1 vs 4/4 = 1: the tie goes to index 0
		{geom.Pt(2, 0), 1},      // E = 1/4 vs 4
		{geom.Pt(0, 4), 3},      // co-located pair: the stronger one
		{geom.Pt(0, 5), 2},      // on the co-located pair: both +Inf, lowest index
		{geom.Pt(3, 0), 1},      // on station 1
		{geom.Pt(1e200, 0), 0},  // every energy is 0: the lowest index
		{geom.Pt(-1, -1e-3), 0}, // plainly nearest and strongest
	} {
		if got, ok := net.Strongest(tc.p); !ok || got != tc.want {
			t.Errorf("Strongest(%v) = (%d, %v), want (%d, true)", tc.p, got, ok, tc.want)
		}
	}
	if got, ok := net.Strongest(geom.Pt(math.NaN(), 0)); ok {
		t.Errorf("Strongest(NaN point) = (%d, true), want no candidate", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { net.Strongest(geom.Pt(1, 1)) }); allocs != 0 {
		t.Errorf("Strongest allocates %g times per call", allocs)
	}
}

// The per-term Energy forms of the alpha = 2 kernel: Interference,
// SINR, Strongest and heardScan as they read before the kernel inlined
// their sums. The kernel must reproduce them bit for bit.

func energyInterference(n *Network, i int, p geom.Point) float64 {
	var sum float64
	for j := 0; j < n.NumStations(); j++ {
		if j != i {
			sum += n.Energy(j, p)
		}
	}
	return sum
}

func energySINR(n *Network, i int, p geom.Point) float64 {
	inter := energyInterference(n, i, p)
	if math.IsInf(inter, 1) {
		return 0
	}
	e := n.Energy(i, p)
	if math.IsInf(e, 1) {
		return math.Inf(1)
	}
	return e / (inter + n.Noise())
}

func energyStrongest(n *Network, p geom.Point) (int, bool) {
	best, bestE := -1, math.Inf(-1)
	for i := 0; i < n.NumStations(); i++ {
		if e := n.Energy(i, p); e > bestE {
			best, bestE = i, e
		}
	}
	return best, best >= 0
}

func energyHeardScan(n *Network, i int, p geom.Point) bool {
	e := n.Energy(i, p)
	if math.IsInf(e, 1) {
		return energySINR(n, i, p) >= n.Beta()
	}
	var sum float64
	for j := 0; j < n.NumStations(); j++ {
		if j == i {
			continue
		}
		sum += n.Energy(j, p)
		if j&15 == 15 && e/(sum+n.Noise()) < n.Beta() {
			return false
		}
	}
	return e/(sum+n.Noise()) >= n.Beta()
}

// TestKernelMatchesEnergySum pins the alpha = 2 kernel to the per-term
// Energy sums, bit for bit: Interference (also for an out-of-range i,
// which sums every station), SINR, the Strongest index and heardScan's
// decision, on the planted networks and probes above (every station, a
// co-located pair, an exact energy tie, the 1e150 and 1e200 over- and
// underflow points) plus NaN coordinates, for alpha in {2, 3}.
func TestKernelMatchesEnergySum(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nan := math.NaN()
	for _, alpha := range []float64{2, 3} {
		for _, beta := range []float64{0.5, 1.5, 3} {
			for _, noise := range []float64{0, 0.01} {
				for trial := 0; trial < 6; trial++ {
					net, shared, tie := plantedNetwork(t, rng, 1.5*rng.Float64(), noise, beta, alpha)
					probes := append(plantedProbes(rng, net, shared, tie), geom.Pt(nan, 0), geom.Pt(0, nan), geom.Pt(nan, nan))
					for _, p := range probes {
						for i := -1; i <= net.NumStations(); i++ {
							if got, want := net.Interference(i, p), energyInterference(net, i, p); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v: Interference(%d, %v) = %v, per-term Energy sum %v", net, i, p, got, want)
							}
							if i < 0 || i == net.NumStations() {
								continue
							}
							if got, want := net.SINR(i, p), energySINR(net, i, p); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v: SINR(%d, %v) = %v, per-term Energy form %v", net, i, p, got, want)
							}
							if got, want := net.heardScan(i, p), energyHeardScan(net, i, p); got != want {
								t.Fatalf("%v: heardScan(%d, %v) = %v, per-term Energy form %v", net, i, p, got, want)
							}
						}
						gi, gok := net.Strongest(p)
						if wi, wok := energyStrongest(net, p); gi != wi || gok != wok {
							t.Fatalf("%v: Strongest(%v) = (%d, %v), per-term Energy form (%d, %v)", net, p, gi, gok, wi, wok)
						}
					}
				}
			}
		}
	}
}
