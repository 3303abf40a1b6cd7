package resolve

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/workload"
)

func dynTestEngine(t *testing.T) (*dynamic.Network, geom.Box) {
	t.Helper()
	box := geom.NewBox(geom.Pt(-4, -4), geom.Pt(4, 4))
	pts, err := workload.NewGenerator(21).UniformSeparated(12, box, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewUniform(pts, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamic.New(net)
	if err != nil {
		t.Fatal(err)
	}
	return dyn, box
}

// TestDynamicKindWiring covers the Kind plumbing: the wire name
// round-trips, the static registry rejects it, and Kinds stays the
// four static backends.
func TestDynamicKindWiring(t *testing.T) {
	k, err := ParseKind("dynamic")
	if err != nil || k != KindDynamic {
		t.Fatalf("ParseKind(dynamic) = (%v, %v)", k, err)
	}
	if got := KindDynamic.String(); got != "dynamic" {
		t.Fatalf("KindDynamic.String() = %q", got)
	}
	net, err := core.NewUniform([]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0)}, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(KindDynamic, net); err == nil {
		t.Fatal("New(KindDynamic, net) accepted a bare network")
	}
	for _, k := range Kinds() {
		if k == KindDynamic {
			t.Fatal("Kinds() lists the dynamic backend")
		}
	}
}

// TestDynamicResolverMatchesExactAcrossEpochs: at every epoch, the
// dynamic resolver's single/batch/stream answers must match an
// ExactResolver built from scratch on the same station set.
func TestDynamicResolverMatchesExactAcrossEpochs(t *testing.T) {
	dyn, box := dynTestEngine(t)
	r, err := NewDynamic(dyn, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(22)
	probes := gen.QueryPoints(200, box)
	ctx := context.Background()

	for _, ev := range gen.ChurnTrace(12, 10, box, 1, 1, 1, 0.3) {
		var d dynamic.Delta
		switch ev.Kind {
		case workload.ChurnArrive:
			d = dynamic.Delta{Add: []dynamic.Station{{Pos: ev.Pos, Power: ev.Power}}}
		case workload.ChurnDepart:
			d = dynamic.Delta{Remove: []int{ev.Station}}
		case workload.ChurnPower:
			d = dynamic.Delta{SetPower: []dynamic.PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
		}
		snap, err := dyn.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewExact(snap.Network())
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]core.Location, len(probes))
		if err := r.ResolveBatch(ctx, probes, batch); err != nil {
			t.Fatal(err)
		}
		in := make(chan geom.Point)
		go func() {
			defer close(in)
			for _, p := range probes {
				in <- p
			}
		}()
		i := 0
		for got := range r.ResolveStream(ctx, in) {
			if want := exact.Resolve(ctx, probes[i]); got != want {
				t.Fatalf("epoch %d: stream answer %d = %+v, want %+v", snap.Epoch(), i, got, want)
			}
			i++
		}
		if i != len(probes) {
			t.Fatalf("stream delivered %d answers, want %d", i, len(probes))
		}
		for j, p := range probes {
			want := exact.Resolve(ctx, p)
			if got := r.Resolve(ctx, p); got != want {
				t.Fatalf("epoch %d: Resolve(%v) = %+v, want %+v", snap.Epoch(), p, got, want)
			}
			if batch[j] != want {
				t.Fatalf("epoch %d: batch[%d] = %+v, want %+v", snap.Epoch(), j, batch[j], want)
			}
		}
		if st := r.Stats(); st.Kind != KindDynamic || st.Epoch != snap.Epoch() || st.Stations != snap.NumStations() {
			t.Fatalf("stats %+v out of step with epoch %d (%d stations)", st, snap.Epoch(), snap.NumStations())
		}
	}
}

// TestPinHoldsEpoch: a pinned snapshot resolver keeps answering from
// its epoch while the engine moves on; the live resolver follows.
func TestPinHoldsEpoch(t *testing.T) {
	dyn, box := dynTestEngine(t)
	r, err := NewDynamic(dyn)
	if err != nil {
		t.Fatal(err)
	}
	pinned := r.Pin()
	if pinned.Stats().Epoch != 1 {
		t.Fatalf("pinned epoch %d, want 1", pinned.Stats().Epoch)
	}
	probes := workload.NewGenerator(23).QueryPoints(100, box)
	ctx := context.Background()
	before := make([]core.Location, len(probes))
	for i, p := range probes {
		before[i] = pinned.Resolve(ctx, p)
	}
	// Drastic churn: remove most stations.
	if _, err := dyn.Apply(dynamic.Delta{Remove: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		if got := pinned.Resolve(ctx, p); got != before[i] {
			t.Fatalf("pinned answer changed at %v: %+v -> %+v", p, before[i], got)
		}
	}
	if got := r.Stats(); got.Epoch != 2 || got.Stations != 2 {
		t.Fatalf("live resolver stats %+v, want epoch 2 with 2 stations", got)
	}
}

// TestOffNearestPathNetworks pins the two networks on which the
// nearest station is the wrong candidate, for every exact backend. With
// per-station powers the strongest signal is not the nearest: station 0
// (power 8) is heard at (0.7, 0) though station 1 (power 1/8) is nearer.
// With beta = 1/2 both stations are heard at (0.52, 0) and the answer
// is the lowest index, 0, though station 1 is nearer.
func TestOffNearestPathNetworks(t *testing.T) {
	powered, err := core.NewNetwork([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 5)}, 0.01, 3,
		core.WithPowers([]float64{8, 0.125, 1}))
	if err != nil {
		t.Fatal(err)
	}
	lowBeta, err := core.NewUniform([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Location{Kind: core.Reception, Station: 0}
	for _, tc := range []struct {
		net *core.Network
		p   geom.Point
	}{
		{powered, geom.Pt(0.7, 0)},
		{lowBeta, geom.Pt(0.52, 0)},
	} {
		dyn, err := dynamic.New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		dynRes, err := NewDynamic(dyn)
		if err != nil {
			t.Fatal(err)
		}
		resolvers := []Resolver{dynRes}
		for _, kind := range []Kind{KindExact, KindVoronoi} {
			r, err := New(kind, tc.net)
			if err != nil {
				t.Fatal(err)
			}
			resolvers = append(resolvers, r)
		}
		for _, r := range resolvers {
			if got := r.Resolve(context.Background(), tc.p); got != want {
				t.Errorf("%v %v: Resolve(%v) = %+v, want %+v", tc.net, r.Stats().Kind, tc.p, got, want)
			}
			if got := batchOf(t, r, []geom.Point{tc.p}); got[0] != want {
				t.Errorf("%v %v: ResolveBatch(%v) = %+v, want %+v", tc.net, r.Stats().Kind, tc.p, got[0], want)
			}
		}
	}
}

// TestVoronoiMatchesHeardBy pins the voronoi backend, which answers
// from the first epoch snapshot of a dynamic engine over the network,
// to the scan oracle on each regime its candidate rule distinguishes:
// uniform power (nearest station), log-normal powers (strongest
// signal) and beta <= 1 (the scan), on uniform and station-adjacent
// query points.
func TestVoronoiMatchesHeardBy(t *testing.T) {
	gen := workload.NewGenerator(909)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	pts, err := gen.UniformSeparated(16, box, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	powers := make([]float64, len(pts))
	for i := range powers {
		powers[i] = math.Exp(gen.Float64()*2 - 1)
	}
	uniform, err := core.NewUniform(pts, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	logNormal, err := core.NewNetwork(pts, 0.01, 3, core.WithPowers(powers))
	if err != nil {
		t.Fatal(err)
	}
	lowBeta, err := core.NewUniform(pts, 0.01, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*core.Network{uniform, logNormal, lowBeta} {
		r, err := New(KindVoronoi, net)
		if err != nil {
			t.Fatal(err)
		}
		if k := r.Stats().Kind; k != KindVoronoi {
			t.Fatalf("New(KindVoronoi).Stats().Kind = %v", k)
		}
		qs := testQueries(t, net, 2000, 910)
		for i, got := range batchOf(t, r, qs) {
			want := core.NoStationHeard
			if idx, ok := net.HeardBy(qs[i]); ok {
				want = idx
			}
			if StationIndex(got) != want {
				t.Fatalf("%v: voronoi answer %+v at %v, HeardBy says %d", net, got, qs[i], want)
			}
		}
	}
}
