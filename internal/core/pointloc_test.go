package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

func TestLocationKindString(t *testing.T) {
	if NoReception.String() != "H-" || Reception.String() != "H+" || Uncertain.String() != "H?" {
		t.Error("kind strings wrong")
	}
	if LocationKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestBuildLocatorAndAccessors(t *testing.T) {
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3)}, 0.01, 3)
	loc, err := n.BuildLocator(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Eps() != 0.2 {
		t.Errorf("Eps = %v", loc.Eps())
	}
	if loc.NumUncertainCells() <= 0 {
		t.Error("no uncertain cells across stations")
	}
	for i := 0; i < n.NumStations(); i++ {
		if loc.QDSFor(i) == nil {
			t.Errorf("missing QDS for station %d", i)
		}
	}
}

func TestBuildLocatorPropagatesErrors(t *testing.T) {
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0, 1) // beta = 1
	if _, err := n.BuildLocator(0.2); err == nil {
		t.Error("beta = 1 must fail")
	}
}

// TestLocatorSoundness: Locate answers must be consistent with ground
// truth — H+ implies heard by that station, H- implies heard by nobody.
func TestLocatorSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := mustNet(t, []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 1), geom.Pt(-2, 3), geom.Pt(1, -3.5), geom.Pt(-3, -2),
	}, 0.01, 2.5)
	loc, err := n.BuildLocator(0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		p := geom.Pt(rng.Float64()*14-7, rng.Float64()*14-7)
		got := loc.Locate(p)
		truth, heard := n.HeardBy(p)
		switch got.Kind {
		case Reception:
			if !heard || truth != got.Station {
				t.Fatalf("Locate(%v) = H+ station %d, truth: heard=%v station=%d",
					p, got.Station, heard, truth)
			}
		case NoReception:
			if heard {
				t.Fatalf("Locate(%v) = H-, but station %d is heard", p, truth)
			}
		case Uncertain:
			// Allowed either way; must at least be the Voronoi candidate.
			if heard && truth != got.Station {
				t.Fatalf("Locate(%v) = H? station %d, but station %d is heard",
					p, got.Station, truth)
			}
		}
	}
}

// TestLocateExactMatchesNaive: resolving the uncertain ring with one
// SINR evaluation must reproduce the naive answer everywhere.
func TestLocateExactMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	n := mustNet(t, []geom.Point{
		geom.Pt(0, 0), geom.Pt(3, 2), geom.Pt(-2, 2), geom.Pt(0.5, -3),
	}, 0.02, 3)
	loc, err := n.BuildLocator(0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		p := geom.Pt(rng.Float64()*12-6, rng.Float64()*12-6)
		got := loc.LocateExact(p)
		want := n.NaiveLocate(p)
		if got.Kind != want.Kind || (got.Kind == Reception && got.Station != want.Station) {
			t.Fatalf("LocateExact(%v) = %+v, naive = %+v", p, got, want)
		}
	}
}

func TestNaiveLocate(t *testing.T) {
	n := twoStation(t)
	if got := n.NaiveLocate(geom.Pt(0, 0)); got.Kind != Reception || got.Station != 0 {
		t.Errorf("at s0: %+v", got)
	}
	if got := n.NaiveLocate(geom.Pt(0.5, 0)); got.Kind != NoReception {
		t.Errorf("between stations: %+v", got)
	}
	if got := n.NaiveLocate(geom.Pt(1.1, 0)); got.Kind != Reception || got.Station != 1 {
		t.Errorf("near s1: %+v", got)
	}
}

func TestVoronoiLocateAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	pts := make([]geom.Point, 12)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
	}
	n := mustNet(t, pts, 0.01, 2)
	tree := kdtree.New(pts)
	for i := 0; i < 2000; i++ {
		p := geom.Pt(rng.Float64()*12-6, rng.Float64()*12-6)
		got := n.VoronoiLocate(p, tree)
		want := n.NaiveLocate(p)
		if got.Kind != want.Kind || (got.Kind == Reception && got.Station != want.Station) {
			t.Fatalf("VoronoiLocate(%v) = %+v, naive = %+v", p, got, want)
		}
	}
	// nil tree builds a throwaway index and still answers correctly.
	got := n.VoronoiLocate(pts[0], nil)
	if got.Kind != Reception || got.Station != 0 {
		t.Errorf("nil-tree locate at s0 = %+v", got)
	}
}

// TestObservation22 verifies Observation 2.2 directly: every in-zone
// point is strictly closer to its station than to any other station.
func TestObservation22(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 10; trial++ {
		pts := make([]geom.Point, 2+rng.Intn(6))
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		}
		n := mustNet(t, pts, rng.Float64()*0.05, 1+rng.Float64()*4)
		if n.IsTrivial() {
			continue
		}
		for i := 0; i < 500; i++ {
			p := geom.Pt(rng.Float64()*12-6, rng.Float64()*12-6)
			k, ok := n.HeardBy(p)
			if !ok {
				continue
			}
			dk := geom.Dist2(n.Station(k), p)
			for j := 0; j < n.NumStations(); j++ {
				if j != k && geom.Dist2(n.Station(j), p) <= dk-1e-12 {
					t.Fatalf("trial %d: point %v heard by %d but closer to %d", trial, p, k, j)
				}
			}
		}
	}
}

// TestObservation22ZoneInsideCell verifies Observation 2.2 on the
// zone boundary, where it is tightest: every boundary sample of zone 0
// lies strictly inside the Voronoi cell of s_0, i.e. is strictly
// closer to s_0 than to any other station.
func TestObservation22ZoneInsideCell(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		sites := make([]geom.Point, 3+rng.Intn(6))
		for i := range sites {
			sites[i] = geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
		}
		n := mustNet(t, sites, 0.01, 1.5+rng.Float64()*4)
		if n.SharesLocation(0) {
			continue
		}
		z, err := n.Zone(0)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := z.SampleBoundary(64, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			d0 := geom.Dist(sites[0], p)
			for j := 1; j < len(sites); j++ {
				if dj := geom.Dist(sites[j], p); dj <= d0 {
					t.Fatalf("trial %d: boundary point %v of zone 0 is no closer to s_0 (%v) than to s_%d (%v)",
						trial, p, d0, j, dj)
				}
			}
		}
	}
}

// TestVoronoiCrossingBoundsReception verifies the remark after
// Corollary 3.5: along a line, the reception boundary crossing comes
// no later than the Voronoi cell boundary crossing (the zone is inside
// the cell).
func TestVoronoiCrossingBoundsReception(t *testing.T) {
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)}, 0, 4)
	// Along the x-axis from s0 toward s1: reception ends at
	// mu_r = 4/(1+2) = 4/3; the Voronoi bisector is at x = 2.
	z, err := n.Zone(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := z.RadialBoundary(0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-4.0/3) > 1e-6 {
		t.Errorf("reception boundary at %v, want 4/3", r)
	}
	if r >= 2 {
		t.Errorf("reception boundary %v not before the Voronoi bisector at 2", r)
	}
}

// TestUncertainFractionSmall: the fraction of queries answered H?
// should be small (it is bounded by the ring area over the sampling
// window area).
func TestUncertainFractionSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(0, 4), geom.Pt(4, 4)}, 0.01, 3)
	loc, err := n.BuildLocator(0.1)
	if err != nil {
		t.Fatal(err)
	}
	uncertain := 0
	const total = 20000
	for i := 0; i < total; i++ {
		p := geom.Pt(rng.Float64()*8-2, rng.Float64()*8-2)
		if loc.Locate(p).Kind == Uncertain {
			uncertain++
		}
	}
	// Rings total well under 5% of the 8x8 window for eps=0.1 here.
	if frac := float64(uncertain) / total; frac > 0.05 {
		t.Errorf("uncertain fraction = %v", frac)
	}
}
