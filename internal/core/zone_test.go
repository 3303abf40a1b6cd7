package core

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestZoneHandle(t *testing.T) {
	n := twoStation(t)
	z, err := n.Zone(0)
	if err != nil {
		t.Fatal(err)
	}
	if z.Index() != 0 || z.Station() != geom.Pt(0, 0) || z.Network() != n {
		t.Error("zone handle accessors wrong")
	}
	if _, err := n.Zone(-1); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := n.Zone(2); err == nil {
		t.Error("out-of-range index must fail")
	}
}

func TestZoneContains(t *testing.T) {
	n := twoStation(t)
	z, _ := n.Zone(0)
	if !z.Contains(geom.Pt(0, 0)) || !z.Contains(geom.Pt(-0.5, 0.2)) {
		t.Error("interior points must be contained")
	}
	if z.Contains(geom.Pt(0.9, 0)) {
		t.Error("exterior point must not be contained")
	}
}

func TestIsPointZone(t *testing.T) {
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0)}, 0, 2)
	z, _ := n.Zone(0)
	if !z.IsPointZone() {
		t.Error("shared location should degenerate to a point zone")
	}
	r, err := z.RadialBoundary(0, 1e-9)
	if err != nil || r != 0 {
		t.Errorf("point zone radial boundary = %v, err = %v", r, err)
	}
}

// TestRadialBoundaryApollonius checks radial probes against the exact
// Apollonius-disk geometry of the two-station network: the zone of s0
// is the disk with center (-1/3, 0) and radius 2/3.
func TestRadialBoundaryApollonius(t *testing.T) {
	n := twoStation(t)
	z, _ := n.Zone(0)
	center := geom.Pt(-1.0/3, 0)
	for _, theta := range []float64{0, math.Pi / 3, math.Pi / 2, math.Pi, 4.1} {
		r, err := z.RadialBoundary(theta, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		p := geom.PolarPoint(z.Station(), r, theta)
		if d := geom.Dist(center, p); math.Abs(d-2.0/3) > 1e-6 {
			t.Errorf("theta=%v: boundary point %v at distance %v from disk center, want 2/3", theta, p, d)
		}
	}
	// Known extreme radii: min toward s1 (theta=0) is 1/3, max away
	// (theta=pi) is 1.
	r0, err := z.RadialBoundary(0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-1.0/3) > 1e-6 {
		t.Errorf("r(0) = %v, want 1/3", r0)
	}
	rPi, err := z.RadialBoundary(math.Pi, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rPi-1) > 1e-6 {
		t.Errorf("r(pi) = %v, want 1", rPi)
	}
}

func TestRadialBoundaryMatchesPolynomialRoots(t *testing.T) {
	// The bisection-based boundary and the Sturm-based line crossings
	// must agree along rays.
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1), geom.Pt(-1, 3), geom.Pt(1, -2)}, 0.01, 2)
	z, _ := n.Zone(0)
	for _, theta := range []float64{0.3, 1.7, 3.0, 5.2} {
		r, err := z.RadialBoundary(theta, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		ray := geom.Line{P: z.Station(), D: geom.Pt(math.Cos(theta), math.Sin(theta))}
		roots, err := n.LineBoundaryCrossings(0, ray, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		// The smallest positive root is the radial boundary.
		best := math.Inf(1)
		for _, rt := range roots {
			if rt > 1e-9 && rt < best {
				best = rt
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("theta=%v: no positive root found (radial said %v)", theta, r)
		}
		if math.Abs(best-r) > 1e-6 {
			t.Errorf("theta=%v: radial=%v, polynomial=%v", theta, r, best)
		}
	}
}

func TestRadialBoundaryRequiresStarGuarantee(t *testing.T) {
	// Non-uniform network: radial bisection refuses.
	n, err := NewNetwork([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0, 2,
		WithPowers([]float64{1, 5}))
	if err != nil {
		t.Fatal(err)
	}
	z, _ := n.Zone(0)
	if _, err := z.RadialBoundary(0, 1e-9); err != ErrNeedUniform {
		t.Errorf("err = %v, want ErrNeedUniform", err)
	}
	// beta < 1: refuses as well.
	nb := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0.01, 0.5)
	zb, _ := nb.Zone(0)
	if _, err := zb.RadialBoundary(0, 1e-9); err == nil {
		t.Error("beta < 1 must be rejected")
	}
}

func TestRadialBoundaryUnboundedZone(t *testing.T) {
	// Trivial network: zones are half-planes; the probe away from the
	// peer must report unboundedness.
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0, 1)
	z, _ := n.Zone(0)
	if _, err := z.RadialBoundary(math.Pi, 1e-9); err == nil {
		t.Error("expected unbounded-zone error")
	}
}

func TestMinMaxRadiusAndFatness(t *testing.T) {
	n := twoStation(t)
	z, _ := n.Zone(0)
	rMin, rMax, _, _, err := z.MinMaxRadius(256, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rMin-1.0/3) > 1e-3 {
		t.Errorf("rMin = %v, want 1/3", rMin)
	}
	if math.Abs(rMax-1) > 1e-3 {
		t.Errorf("rMax = %v, want 1", rMax)
	}
	phi, err := z.MeasuredFatness(256, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Exact fatness for two stations is (sqrt(beta)+1)/(sqrt(beta)-1) = 3.
	if math.Abs(phi-3) > 1e-2 {
		t.Errorf("fatness = %v, want 3", phi)
	}
}

func TestApproxAreaPerimeterApollonius(t *testing.T) {
	n := twoStation(t)
	z, _ := n.Zone(0)
	area, err := z.ApproxArea(512, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	wantArea := math.Pi * (2.0 / 3) * (2.0 / 3)
	if math.Abs(area-wantArea) > 0.01*wantArea {
		t.Errorf("area = %v, want %v", area, wantArea)
	}
	per, err := z.ApproxPerimeter(512, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	wantPer := 2 * math.Pi * 2.0 / 3
	if math.Abs(per-wantPer) > 0.01*wantPer {
		t.Errorf("perimeter = %v, want %v", per, wantPer)
	}
}

func TestSampleBoundaryValidation(t *testing.T) {
	n := twoStation(t)
	z, _ := n.Zone(0)
	if _, err := z.SampleBoundary(2, 1e-9); err == nil {
		t.Error("fewer than 3 samples must fail")
	}
	pts, err := z.SampleBoundary(16, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("len = %d", len(pts))
	}
	// Every sample is (approximately) on the boundary.
	for _, p := range pts {
		if got := n.SINR(0, p); math.Abs(got-n.Beta()) > 1e-6*n.Beta() {
			t.Errorf("sample %v has SINR %v, want beta=%v", p, got, n.Beta())
		}
	}
}

// TestRadialBoundaryHintedMatchesCold: the warm-started probe of the
// boundary trace lands within tol of the cold search for hints on the
// boundary, a fraction of tol off it (the bracket straddles at once),
// several tol off it (the bracket has to move), 10% off it (many
// doubling steps) and 30% off it (a step leaves the window and the
// probe falls back to the cold search). A NaN tol takes the cold
// search too.
func TestRadialBoundaryHintedMatchesCold(t *testing.T) {
	nets := []*Network{
		twoStation(t),
		mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(1.3, 0.4), geom.Pt(-0.9, 1.2)}, 0.02, 2.5),
		testNetwork(t, 42, 24),
	}
	for ni, n := range nets {
		z, _ := n.Zone(0)
		for _, theta := range []float64{0, 0.7, math.Pi / 2, 2.9, 4.4, 6} {
			cold, err := z.RadialBoundary(theta, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			nanCold, _ := z.RadialBoundary(theta, math.NaN())
			if got, err := z.radialBoundaryHinted(theta, math.NaN(), cold); err != nil || got != nanCold {
				t.Errorf("net %d theta %v: NaN tol gave %v, %v; the cold search gives %v", ni, theta, got, err, nanCold)
			}
			for _, tol := range []float64{cold / 200, cold / 5000} {
				r, err := z.RadialBoundary(theta, tol)
				if err != nil {
					t.Fatal(err)
				}
				hints := []float64{r, r * 1.1, r * 0.9, r * 1.3, r * 0.7}
				for _, k := range []float64{0.3, 3, 30} {
					hints = append(hints, r+k*tol, r-k*tol)
				}
				for _, hint := range hints {
					got, err := z.radialBoundaryHinted(theta, tol, hint)
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(got - r); d > tol {
						t.Errorf("net %d theta %v tol %.3g hint %v: hinted %v, cold %v (off by %.3g tol)",
							ni, theta, tol, hint, got, r, d/tol)
					}
				}
			}
		}
	}
}
