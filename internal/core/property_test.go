package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// clampCoord maps an arbitrary float64 into a sane coordinate range.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 8)
}

// TestQuickSINRScaleInvariance: SINR is invariant under uniform
// scaling of all distances with noise rescaled by 1/sigma^2
// (Lemma 2.3), across arbitrary random geometries.
func TestQuickSINRScaleInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, px, py, rawSigma float64) bool {
		a := geom.Pt(clampCoord(ax), clampCoord(ay))
		b := geom.Pt(clampCoord(bx)+10, clampCoord(by)) // keep stations apart
		p := geom.Pt(clampCoord(px)+3, clampCoord(py)+3)
		sigma := 0.25 + math.Abs(math.Mod(rawSigma, 4))
		n, err := NewUniform([]geom.Point{a, b}, 0.05, 2)
		if err != nil {
			return false
		}
		fTr := geom.Scaling(sigma)
		fn, err := n.Transform(fTr)
		if err != nil {
			return false
		}
		s1 := n.SINR(0, p)
		s2 := fn.SINR(0, fTr.Apply(p))
		if math.IsInf(s1, 1) || math.IsInf(s2, 1) {
			return math.IsInf(s1, 1) == math.IsInf(s2, 1)
		}
		return math.Abs(s1-s2) <= 1e-6*(1+s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSegmentTestReversalInvariance: the number of boundary
// crossings of a segment does not depend on its orientation.
func TestQuickSegmentTestReversalInvariance(t *testing.T) {
	net := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1), geom.Pt(-1, 2)}, 0.02, 2.5)
	f := func(ax, ay, bx, by float64) bool {
		a := geom.Pt(clampCoord(ax), clampCoord(ay))
		b := geom.Pt(clampCoord(bx), clampCoord(by))
		if geom.Dist(a, b) < 0.05 {
			return true
		}
		c1, err1 := net.SegmentTest(0, geom.Seg(a, b))
		c2, err2 := net.SegmentTest(0, geom.Seg(b, a))
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickHeardMonotoneInBeta: raising the threshold can only shrink
// zones.
func TestQuickHeardMonotoneInBeta(t *testing.T) {
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3)}
	f := func(px, py, rawB1, rawB2 float64) bool {
		p := geom.Pt(clampCoord(px), clampCoord(py))
		b1 := 1 + math.Abs(math.Mod(rawB1, 5))
		b2 := b1 + math.Abs(math.Mod(rawB2, 5))
		lo, err := NewUniform(stations, 0.01, b1)
		if err != nil {
			return false
		}
		hi, err := NewUniform(stations, 0.01, b2)
		if err != nil {
			return false
		}
		// heard at the stricter threshold implies heard at the looser.
		return !hi.Heard(0, p) || lo.Heard(0, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickHeardMonotoneInNoise: raising the noise can only shrink
// zones.
func TestQuickHeardMonotoneInNoise(t *testing.T) {
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}
	f := func(px, py, rawN1, rawN2 float64) bool {
		p := geom.Pt(clampCoord(px), clampCoord(py))
		n1 := math.Abs(math.Mod(rawN1, 0.2))
		n2 := n1 + math.Abs(math.Mod(rawN2, 0.2))
		lo, err := NewUniform(stations, n1, 2)
		if err != nil {
			return false
		}
		hi, err := NewUniform(stations, n2, 2)
		if err != nil {
			return false
		}
		return !hi.Heard(0, p) || lo.Heard(0, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickInterferenceAdditive: interference at a point equals the
// sum of single-station energies (Equation 1's denominator structure).
func TestQuickInterferenceAdditive(t *testing.T) {
	f := func(px, py float64) bool {
		p := geom.Pt(clampCoord(px)+0.1, clampCoord(py)+0.1)
		stations := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3), geom.Pt(-3, -3)}
		n, err := NewUniform(stations, 0, 2)
		if err != nil {
			return false
		}
		var sum float64
		for j := 1; j < n.NumStations(); j++ {
			sum += n.Energy(j, p)
		}
		got := n.Interference(0, p)
		if math.IsInf(sum, 1) {
			return math.IsInf(got, 1)
		}
		return math.Abs(got-sum) <= 1e-9*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickIndexedLocateMatchesScan: the spatial-index fast path of
// Locate/LocateExact/HeardBy answers point-for-point identically to
// both the pre-index scan baseline (LocateScan) and a locator built
// with the index disabled, across random networks, epsilons and
// query points — including points far outside every zone (the
// index's fast H- exit) and points near zone boundaries (the H?
// rings).
func TestQuickIndexedLocateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(10)
		stations := make([]geom.Point, n)
		for i := range stations {
			stations[i] = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		}
		if trial%4 == 3 {
			// Exercise the degenerate point-zone path too.
			stations[n-1] = stations[0]
		}
		net := mustNet(t, stations, 0.01, 1.5+rng.Float64()*3)
		eps := []float64{0.5, 0.2, 0.1}[rng.Intn(3)]
		indexed, err := BuildLocatorOpts(net, eps, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: indexed build: %v", trial, err)
		}
		plain, err := BuildLocatorOpts(net, eps, BuildOptions{Workers: 1, NoSpatialIndex: true})
		if err != nil {
			t.Fatalf("trial %d: plain build: %v", trial, err)
		}
		if indexed.SpatialIndex() == nil || plain.SpatialIndex() != nil {
			t.Fatalf("trial %d: index presence wrong (on by default, off on request)", trial)
		}
		for q := 0; q < 1500; q++ {
			// Mix wide-area points (mostly H-) with points near a
			// station (H+ and H? territory).
			var p geom.Point
			if q%2 == 0 {
				p = geom.Pt(rng.Float64()*30-15, rng.Float64()*30-15)
			} else {
				s := stations[rng.Intn(n)]
				r := rng.Float64() * 2
				a := rng.Float64() * 2 * math.Pi
				p = geom.Pt(s.X+r*math.Cos(a), s.Y+r*math.Sin(a))
			}
			want := indexed.LocateScan(p)
			if got := indexed.Locate(p); got != want {
				t.Fatalf("trial %d: Locate(%v) = %+v, scan = %+v", trial, p, got, want)
			}
			if got := plain.Locate(p); got != want {
				t.Fatalf("trial %d: no-index Locate(%v) = %+v, scan = %+v", trial, p, got, want)
			}
			wantExact := indexed.ResolveUncertain(want, p)
			if got := indexed.LocateExact(p); got != wantExact {
				t.Fatalf("trial %d: LocateExact(%v) = %+v, want %+v", trial, p, got, wantExact)
			}
			gi, oki := indexed.HeardBy(p)
			gp, okp := plain.HeardBy(p)
			if gi != gp || oki != okp {
				t.Fatalf("trial %d: HeardBy(%v) indexed (%d,%v) != plain (%d,%v)",
					trial, p, gi, oki, gp, okp)
			}
		}
	}
}

// TestQuickZoneShrinksWithMoreInterferers: adding a station never
// grows an existing zone (the Figure 1(C) silencing effect, stated as
// the contrapositive).
func TestQuickZoneShrinksWithMoreInterferers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 100; trial++ {
		base := []geom.Point{geom.Pt(0, 0), geom.Pt(2.5, 0.5)}
		extra := geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
		small := mustNet(t, base, 0.02, 2)
		big := mustNet(t, append(append([]geom.Point{}, base...), extra), 0.02, 2)
		p := geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)
		if big.Heard(0, p) && !small.Heard(0, p) {
			t.Fatalf("trial %d: adding station %v grew zone 0 at %v", trial, extra, p)
		}
	}
}
