package resolve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

func testNetwork(t *testing.T, n int, seed int64) *core.Network {
	t.Helper()
	gen := workload.NewGenerator(seed)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	stations, err := gen.UniformSeparated(n, box, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testQueries mixes uniform points with the adversarial ones: the
// stations themselves and exact-tie midpoints.
func testQueries(t *testing.T, net *core.Network, n int, seed int64) []geom.Point {
	t.Helper()
	gen := workload.NewGenerator(seed)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(n, box)
	pts = append(pts, net.Stations()...)
	pts = append(pts, geom.Midpoint(net.Station(0), net.Station(1)))
	return pts
}

// batchOf runs ResolveBatch and fails the test on error.
func batchOf(t *testing.T, r Resolver, pts []geom.Point) []core.Location {
	t.Helper()
	dst := make([]core.Location, len(pts))
	if err := r.ResolveBatch(context.Background(), pts, dst); err != nil {
		t.Fatalf("%v ResolveBatch: %v", r.Stats().Kind, err)
	}
	return dst
}

// streamOf pushes pts through ResolveStream and collects the answers.
func streamOf(t *testing.T, r Resolver, pts []geom.Point) []core.Location {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	in := make(chan geom.Point)
	go func() {
		defer close(in)
		for _, p := range pts {
			in <- p
		}
	}()
	var out []core.Location
	for loc := range r.ResolveStream(ctx, in) {
		out = append(out, loc)
	}
	if len(out) != len(pts) {
		t.Fatalf("%v ResolveStream: %d answers for %d points", r.Stats().Kind, len(out), len(pts))
	}
	return out
}

// TestCrossBackendEquivalence is the cross-backend property test: on
// random uniform networks, ExactResolver, LocatorResolver with exact
// fallback and the voronoi backend return identical answers point-for-
// point, and for EVERY resolver (UDG included) the single-point,
// batch and stream paths agree with each other.
func TestCrossBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n    int
		seed int64
	}{
		{4, 101}, {12, 202}, {24, 303},
	} {
		net := testNetwork(t, tc.n, tc.seed)
		pts := testQueries(t, net, 1500, tc.seed+7)

		exact, err := NewExact(net)
		if err != nil {
			t.Fatal(err)
		}
		locator, err := NewLocator(net, WithEpsilon(0.1), WithExactFallback(true))
		if err != nil {
			t.Fatal(err)
		}
		voronoi, err := New(KindVoronoi, net)
		if err != nil {
			t.Fatal(err)
		}
		udgRes, err := NewUDG(net)
		if err != nil {
			t.Fatal(err)
		}

		want := batchOf(t, exact, pts)
		for _, r := range []Resolver{exact, locator, voronoi, udgRes} {
			kind := r.Stats().Kind
			batch := batchOf(t, r, pts)
			stream := streamOf(t, r, pts)
			for i, p := range pts {
				single := r.Resolve(ctx, p)
				if batch[i] != single {
					t.Fatalf("n=%d %v: batch[%d]=%v != single %v at %v", tc.n, kind, i, batch[i], single, p)
				}
				if stream[i] != single {
					t.Fatalf("n=%d %v: stream[%d]=%v != single %v at %v", tc.n, kind, i, stream[i], single, p)
				}
				// The exact backends must agree with the ground truth;
				// UDG is a different model and legitimately disagrees.
				if kind != KindUDG && single != want[i] {
					t.Fatalf("n=%d %v: answer %v != exact %v at %v", tc.n, kind, single, want[i], p)
				}
			}
		}
	}
}

// TestLocatorApproxMode checks WithExactFallback(false) surfaces H?
// answers and that resolving them through the shared code path
// (Locator.ResolveUncertain) reproduces the exact-fallback resolver.
func TestLocatorApproxMode(t *testing.T) {
	ctx := context.Background()
	net := testNetwork(t, 12, 404)
	pts := testQueries(t, net, 3000, 405)

	approx, err := NewLocator(net, WithEpsilon(0.3), WithExactFallback(false))
	if err != nil {
		t.Fatal(err)
	}
	exactFb, err := NewLocator(net, WithEpsilon(0.3), WithExactFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	if approx.Stats().ExactFallback || !exactFb.Stats().ExactFallback {
		t.Fatalf("ExactFallback stats wrong: %+v vs %+v", approx.Stats(), exactFb.Stats())
	}
	uncertain := 0
	for _, p := range pts {
		a := approx.Resolve(ctx, p)
		if a.Kind == core.Uncertain {
			uncertain++
		}
		got := approx.Locator().ResolveUncertain(a, p)
		if want := exactFb.Resolve(ctx, p); got != want {
			t.Fatalf("ResolveUncertain(%v) = %v, exact-fallback resolver says %v at %v", a, got, want, p)
		}
	}
	if uncertain == 0 {
		t.Fatal("no H? answers sampled; approx mode not exercised (enlarge eps or query count)")
	}
}

// TestBatchCancellation checks an already-cancelled context aborts
// ResolveBatch with ctx.Err().
func TestBatchCancellation(t *testing.T) {
	net := testNetwork(t, 6, 505)
	r, err := NewExact(net)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := testQueries(t, net, 100, 506)
	if err := r.ResolveBatch(ctx, pts, make([]core.Location, len(pts))); err != context.Canceled {
		t.Fatalf("ResolveBatch on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := r.ResolveBatch(context.Background(), pts, make([]core.Location, 1)); err == nil {
		t.Fatal("ResolveBatch accepted a mis-sized dst")
	}
}

// TestNewAndParseKind round-trips every kind through the registry
// constructor and the wire vocabulary.
func TestNewAndParseKind(t *testing.T) {
	net := testNetwork(t, 5, 606)
	for _, kind := range Kinds() {
		parsed, err := ParseKind(kind.String())
		if err != nil || parsed != kind {
			t.Fatalf("ParseKind(%q) = %v, %v", kind.String(), parsed, err)
		}
		r, err := New(kind, net, WithWorkers(2), WithEpsilon(0.2), WithRadius(1.5))
		if err != nil {
			t.Fatalf("New(%v): %v", kind, err)
		}
		st := r.Stats()
		if st.Kind != kind || st.Stations != net.NumStations() || st.Workers != 2 {
			t.Fatalf("New(%v).Stats() = %+v", kind, st)
		}
		switch kind {
		case KindLocator:
			if st.Eps != 0.2 || !st.ExactFallback || st.BuildCost <= 0 {
				t.Fatalf("locator stats = %+v", st)
			}
			// The Theorem 3 structure always carries its spatial index,
			// and the stats describe it.
			if !st.SpatialIndex || st.IndexCells <= 0 || st.IndexOccupied <= 0 ||
				st.IndexMaxPerCell <= 0 || st.IndexAvgPerCell <= 0 {
				t.Fatalf("locator stats lack the index description: %+v", st)
			}
		case KindVoronoi:
			if st.Epoch != 1 || st.BuildCost <= 0 {
				t.Fatalf("voronoi stats = %+v, want the first epoch and a build cost", st)
			}
		case KindUDG:
			if st.ConnRadius != 1.5 || st.InterfRadius != 1.5 {
				t.Fatalf("udg stats = %+v", st)
			}
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
	if k, err := ParseKind(""); err != nil || k != KindLocator {
		t.Fatalf("ParseKind(\"\") = %v, %v; want the locator default", k, err)
	}
}

// TestDefaultUDGRadius pins the derivation: noise-limited range when
// noise > 0, max nearest-peer distance when noiseless, 1 as the last
// resort.
func TestDefaultUDGRadius(t *testing.T) {
	noisy, err := core.NewUniform([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	// r = (1 / (0.01 * 4))^(1/2) = 5.
	if got := DefaultUDGRadius(noisy); got < 4.999 || got > 5.001 {
		t.Fatalf("noisy radius = %g, want 5", got)
	}
	quiet, err := core.NewUniform([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultUDGRadius(quiet); got != 3 {
		t.Fatalf("noiseless radius = %g, want 3 (max kappa)", got)
	}
	lone, err := core.NewUniform([]geom.Point{geom.Pt(0, 0)}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultUDGRadius(lone); got != 1 {
		t.Fatalf("single-station radius = %g, want 1", got)
	}
}

// TestOptionValidation checks the option validators reject garbage.
func TestOptionValidation(t *testing.T) {
	net := testNetwork(t, 4, 707)
	for _, bad := range [][]Option{
		{WithWorkers(-1)},
		{WithEpsilon(0)},
		{WithEpsilon(-0.5)},
		{WithRadius(-2)},
		{WithInterfRadius(-2)},
	} {
		if _, err := NewExact(net, bad...); err == nil {
			t.Fatalf("options %v accepted", bad)
		}
	}
	// Quasi-UDG: interference radius below connectivity is rejected by
	// the model.
	if _, err := NewUDG(net, WithRadius(2), WithInterfRadius(1)); err == nil {
		t.Fatal("interf < conn accepted")
	}
	if r, err := NewUDG(net, WithRadius(1), WithInterfRadius(2)); err != nil || r.Stats().InterfRadius != 2 {
		t.Fatalf("quasi-UDG: %v, %+v", err, r.Stats())
	}
}
