package dynamic

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

const (
	testNoise = 0.01
	testBeta  = 3
	testEps   = 0.3
)

var testBox = geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))

// startNet builds a deterministic uniform starting network.
func startNet(t testing.TB, n int, seed int64) *core.Network {
	t.Helper()
	gen := workload.NewGenerator(seed)
	pts, err := gen.UniformSeparated(n, testBox, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewUniform(pts, testNoise, testBeta)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// queryGrid returns a grid of probe points over an area larger than
// the deployment box, plus points near every station (zone boundaries
// live there).
func queryGrid(net *core.Network) []geom.Point {
	var pts []geom.Point
	for x := -7.0; x <= 7.0; x += 0.5 {
		for y := -7.0; y <= 7.0; y += 0.5 {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	for i := 0; i < net.NumStations(); i++ {
		s := net.Station(i)
		pts = append(pts, s, geom.Pt(s.X+0.03, s.Y), geom.Pt(s.X, s.Y-0.07), geom.Pt(s.X+0.4, s.Y+0.4))
	}
	return pts
}

// deltaFromEvent converts one churn event to a single-station Delta.
func deltaFromEvent(ev workload.ChurnEvent) Delta {
	switch ev.Kind {
	case workload.ChurnArrive:
		return Delta{Add: []Station{{Pos: ev.Pos, Power: ev.Power}}}
	case workload.ChurnDepart:
		return Delta{Remove: []int{ev.Station}}
	default:
		return Delta{SetPower: []PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
	}
}

// scratchNet rebuilds the snapshot's station set from scratch.
func scratchNet(t *testing.T, snap *Snapshot) *core.Network {
	t.Helper()
	n := snap.NumStations()
	pts := make([]geom.Point, n)
	powers := make([]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = snap.Network().Station(i)
		powers[i] = snap.Network().Power(i)
	}
	net, err := core.NewNetwork(pts, testNoise, testBeta, core.WithPowers(powers))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestApplyEquivalentToFromScratch is the pinning property test: after
// ANY delta sequence, a snapshot must answer every query point exactly
// like a from-scratch build on the same final station set — both the
// exact Network.HeardBy and, for locator-eligible (uniform) states,
// the Theorem 3 locator with and without its spatial index. It runs
// the engine in three modes: amortizing (default threshold), purely
// incremental (threshold Inf) and always-rebuilding (threshold 0), so
// both maintenance paths and their interleavings are pinned.
func TestApplyEquivalentToFromScratch(t *testing.T) {
	modes := []struct {
		name     string
		fraction float64
	}{
		{"amortized", DefaultRebuildFraction},
		{"incremental", math.Inf(1)},
		{"rebuild", 0},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				net := startNet(t, 10, seed)
				dyn, err := New(net, WithRebuildFraction(mode.fraction))
				if err != nil {
					t.Fatal(err)
				}
				// Arrival/departure-only trace keeps the network uniform, so
				// every epoch is locator-eligible.
				gen := workload.NewGenerator(100 + seed)
				trace := gen.ChurnTrace(10, 40, testBox, 1, 1, 0, 0)
				sawInc, sawReb := false, false
				for evi, ev := range trace {
					snap, err := dyn.Apply(deltaFromEvent(ev))
					if err != nil {
						t.Fatalf("event %d (%+v): %v", evi, ev, err)
					}
					switch snap.ApplyStats().Path {
					case PathIncremental:
						sawInc = true
					case PathRebuild:
						sawReb = true
					}
					// Check a few epochs densely, not all (locator builds are
					// the expensive part of this test).
					if evi%8 != 0 && evi != len(trace)-1 {
						continue
					}
					scratch := scratchNet(t, snap)
					loc, err := scratch.BuildLocator(testEps)
					if err != nil {
						t.Fatalf("event %d: from-scratch locator: %v", evi, err)
					}
					noIdx, err := core.BuildLocatorOpts(scratch, testEps, core.BuildOptions{NoSpatialIndex: true})
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range queryGrid(scratch) {
						got := snap.Locate(p)
						if want := loc.LocateExact(p); got != want {
							t.Fatalf("mode %s seed %d event %d: Locate(%v) = %+v, from-scratch locator %+v",
								mode.name, seed, evi, p, got, want)
						}
						if want := noIdx.LocateExact(p); got != want {
							t.Fatalf("mode %s seed %d event %d: Locate(%v) = %+v, NoSpatialIndex locator %+v",
								mode.name, seed, evi, p, got, want)
						}
						gi, gok := snap.HeardBy(p)
						wi, wok := scratch.HeardBy(p)
						if gok != wok || (gok && gi != wi) {
							t.Fatalf("mode %s seed %d event %d: HeardBy(%v) = (%d, %v), want (%d, %v)",
								mode.name, seed, evi, p, gi, gok, wi, wok)
						}
					}
				}
				switch mode.name {
				case "incremental":
					if sawReb {
						t.Fatal("threshold Inf took a rebuild")
					}
				case "rebuild":
					if sawInc {
						t.Fatal("threshold 0 took an incremental apply")
					}
				case "amortized":
					if !sawInc || !sawReb {
						t.Fatalf("amortized mode exercised inc=%v reb=%v, want both", sawInc, sawReb)
					}
				}
			}
		})
	}
}

// TestApplyPowerWalkEquivalence extends the property to power-walk
// deltas (non-uniform epochs, strongest-station query path): snapshots
// must agree with from-scratch Network.HeardBy point-for-point.
func TestApplyPowerWalkEquivalence(t *testing.T) {
	net := startNet(t, 8, 5)
	dyn, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(77)
	trace := gen.ChurnTrace(8, 30, testBox, 1, 1, 2, 0.4)
	for evi, ev := range trace {
		snap, err := dyn.Apply(deltaFromEvent(ev))
		if err != nil {
			t.Fatalf("event %d: %v", evi, err)
		}
		if evi%6 != 0 && evi != len(trace)-1 {
			continue
		}
		scratch := scratchNet(t, snap)
		for _, p := range queryGrid(scratch) {
			gi, gok := snap.HeardBy(p)
			wi, wok := scratch.HeardBy(p)
			if gok != wok || (gok && gi != wi) {
				t.Fatalf("event %d: HeardBy(%v) = (%d, %v), want (%d, %v)", evi, p, gi, gok, wi, wok)
			}
		}
	}
}

// TestSnapshotIsolation: an epoch captured before further churn must
// keep answering from its own station set, bit-for-bit, no matter how
// much the engine moves on (including across amortized rebuilds).
func TestSnapshotIsolation(t *testing.T) {
	net := startNet(t, 6, 9)
	dyn, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	pinned := dyn.Snapshot()
	pinnedNet := scratchNet(t, pinned)
	probes := queryGrid(pinnedNet)
	want := make([]core.Location, len(probes))
	for i, p := range probes {
		want[i] = pinned.Locate(p)
	}

	gen := workload.NewGenerator(31)
	for _, ev := range gen.ChurnTrace(6, 60, testBox, 2, 1, 1, 0.3) {
		if _, err := dyn.Apply(deltaFromEvent(ev)); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.Epoch() != 61 {
		t.Fatalf("epoch %d after 60 applies, want 61", dyn.Epoch())
	}
	for i, p := range probes {
		if got := pinned.Locate(p); got != want[i] {
			t.Fatalf("pinned epoch answer changed at %v: %+v -> %+v", p, want[i], got)
		}
	}
	if pinned.Epoch() != 1 || pinned.NumStations() != 6 {
		t.Fatalf("pinned snapshot mutated: epoch %d stations %d", pinned.Epoch(), pinned.NumStations())
	}
}

// TestSnapshotIsolationAcrossSlotGrowth: the slot table of a rebuild
// starts at capacity n, so the first admission reallocates it. An
// epoch pinned before that keeps its capped views of the old arrays
// and must keep answering from its own station set.
func TestSnapshotIsolationAcrossSlotGrowth(t *testing.T) {
	net := startNet(t, 8, 12)
	dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	pinned := dyn.Snapshot()
	probes := queryGrid(scratchNet(t, pinned))
	want := make([]core.Location, len(probes))
	for i, p := range probes {
		want[i] = pinned.Locate(p)
	}
	first := &dyn.tab.pts[0]
	for k := 0; k < 40; k++ {
		// Arrivals beside the first stations keep their cover boxes
		// inside the grid's extent, so every delta stays incremental.
		s := net.Station(k % 8)
		d := Delta{Add: []Station{{Pos: geom.Pt(s.X+0.01*float64(k+1), s.Y)}}}
		if k%3 == 2 {
			d = Delta{SetPower: []PowerUpdate{{Station: k % 8, Power: 1 + float64(k%4)/8}}}
		}
		snap, err := dyn.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if snap.ApplyStats().Path != PathIncremental {
			t.Fatalf("delta %d took the %v path", k, snap.ApplyStats().Path)
		}
	}
	if &dyn.tab.pts[0] == first {
		t.Fatal("40 admissions left the slot table in place; the test must force a reallocation")
	}
	for i, p := range probes {
		if got := pinned.Locate(p); got != want[i] {
			t.Fatalf("pinned epoch answer changed at %v: %+v -> %+v", p, want[i], got)
		}
	}
}

// TestApplyValidation: bad deltas are rejected and leave the engine
// untouched.
func TestApplyValidation(t *testing.T) {
	net := startNet(t, 4, 2)
	dyn, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	before := dyn.Snapshot()
	bad := []Delta{
		{Remove: []int{4}},
		{Remove: []int{-1}},
		{Remove: []int{1, 1}},
		{Remove: []int{0, 1, 2, 3}},
		{SetPower: []PowerUpdate{{Station: 9, Power: 2}}},
		{SetPower: []PowerUpdate{{Station: 0, Power: 0}}},
		{SetPower: []PowerUpdate{{Station: 0, Power: math.NaN()}}},
		{Add: []Station{{Pos: geom.Pt(math.Inf(1), 0)}}},
		{Add: []Station{{Pos: geom.Pt(0, 0), Power: -1}}},
	}
	for i, d := range bad {
		if _, err := dyn.Apply(d); err == nil {
			t.Fatalf("bad delta %d accepted: %+v", i, d)
		}
	}
	if got := dyn.Snapshot(); got != before {
		t.Fatal("failed Apply replaced the snapshot")
	}
	// The rejected deltas must not have skewed the churn accounting:
	// a subsequent small delta stays incremental.
	snap, err := dyn.Apply(Delta{Add: []Station{{Pos: geom.Pt(1.23, -2.1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ApplyStats().Path != PathIncremental {
		t.Fatalf("apply after rejected deltas took %v, want incremental", snap.ApplyStats().Path)
	}
	if snap.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2 (rejected deltas must not consume epochs)", snap.Epoch())
	}
}

// TestApplyStatsAndSemantics covers the delta phase semantics
// (pre-delta indices, last-wins power updates, repower+remove in one
// delta) and the ApplyStats bookkeeping.
func TestApplyStatsAndSemantics(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3), geom.Pt(3, 3)}
	net, err := core.NewUniform(pts, testNoise, testBeta)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Power steps stay modest so the updated cover boxes fit the grid
	// extent and the apply stays on the incremental path (a large jump
	// legitimately escapes the grid and amortizes — see
	// TestOutOfExtentArrivalForcesRebuild).
	snap, err := dyn.Apply(Delta{
		SetPower: []PowerUpdate{{Station: 1, Power: 1.2}, {Station: 1, Power: 1.3}, {Station: 2, Power: 1.25}},
		Remove:   []int{2, 0},
		Add:      []Station{{Pos: geom.Pt(-3, -3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := snap.ApplyStats()
	if st.Epoch != 2 || st.Path != PathIncremental || st.Stations != 3 ||
		st.Added != 1 || st.Removed != 2 || st.Repowered != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.GridCellsTouched == 0 {
		t.Fatal("incremental apply touched no grid cells")
	}
	// Survivors compact in order: [s1(power 4), s3(power 1)], then the
	// arrival appends.
	got := snap.Network()
	wantPts := []geom.Point{geom.Pt(3, 0), geom.Pt(3, 3), geom.Pt(-3, -3)}
	wantPow := []float64{1.3, 1, 1}
	if got.NumStations() != 3 {
		t.Fatalf("stations %d, want 3", got.NumStations())
	}
	for i := range wantPts {
		if got.Station(i) != wantPts[i] || got.Power(i) != wantPow[i] {
			t.Fatalf("station %d = %v @%g, want %v @%g", i, got.Station(i), got.Power(i), wantPts[i], wantPow[i])
		}
	}
}

// TestNoiselessNetworkDisablesGrid: unbounded cover boxes must disable
// the fast H- exit, not corrupt answers.
func TestNoiselessNetworkDisablesGrid(t *testing.T) {
	net, err := core.NewUniform([]geom.Point{geom.Pt(-1, 0), geom.Pt(1, 0)}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	snap := dyn.Snapshot()
	if snap.GridEnabled() {
		t.Fatal("grid enabled for a noiseless network")
	}
	snap, err = dyn.Apply(Delta{Add: []Station{{Pos: geom.Pt(0, 5)}}})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := core.NewUniform([]geom.Point{geom.Pt(-1, 0), geom.Pt(1, 0), geom.Pt(0, 5)}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range queryGrid(scratch) {
		gi, gok := snap.HeardBy(p)
		wi, wok := scratch.HeardBy(p)
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("HeardBy(%v) = (%d, %v), want (%d, %v)", p, gi, gok, wi, wok)
		}
	}
}

// TestOutOfExtentArrivalForcesRebuild: an arrival far outside the
// grid's padded extent cannot be absorbed incrementally; the engine
// must take the rebuild path and keep answering correctly.
func TestOutOfExtentArrivalForcesRebuild(t *testing.T) {
	net := startNet(t, 8, 3)
	dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	far := geom.Pt(500, 500)
	snap, err := dyn.Apply(Delta{Add: []Station{{Pos: far}}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ApplyStats().Path != PathRebuild {
		t.Fatalf("far arrival took %v, want rebuild", snap.ApplyStats().Path)
	}
	if !snap.GridEnabled() {
		t.Fatal("grid disabled after rebuild")
	}
	if i, ok := snap.HeardBy(far); !ok || i != 8 {
		t.Fatalf("HeardBy(far station) = (%d, %v), want (8, true)", i, ok)
	}
}

// TestConcurrentQueriesDuringChurn hammers snapshots from many
// goroutines while the engine churns; run with -race. Each goroutine
// pins one snapshot per pass and checks internal consistency against
// that snapshot's own network.
func TestConcurrentQueriesDuringChurn(t *testing.T) {
	net := startNet(t, 8, 4)
	dyn, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(55)
	trace := gen.ChurnTrace(8, 80, testBox, 1, 1, 1, 0.3)
	probeGen := workload.NewGenerator(56)
	probes := probeGen.QueryPoints(64, testBox)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				snap := dyn.Snapshot()
				for _, p := range probes {
					got := snap.Locate(p)
					wi, wok := snap.Network().HeardBy(p)
					if (got.Kind == core.Reception) != wok || (wok && got.Station != wi) {
						errs <- "snapshot disagrees with its own network"
						return
					}
				}
			}
		}()
	}
	for _, ev := range trace {
		if _, err := dyn.Apply(deltaFromEvent(ev)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestLocateAllocationFree pins the query hot path at zero allocations
// for the grid's no-hit exit and the strongest-hit+check path, on a
// uniform epoch and — after a power update makes it non-uniform — on
// an epoch with re-derived boxes (the post-churn shape).
func TestLocateAllocationFree(t *testing.T) {
	net := startNet(t, 32, 8)
	dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(60)
	for _, ev := range gen.ChurnTrace(32, 6, testBox, 1, 1, 0, 0) {
		if _, err := dyn.Apply(deltaFromEvent(ev)); err != nil {
			t.Fatal(err)
		}
	}
	probes := append(probeGenPoints(61, 128), geom.Pt(400, 400)) // covered + far outside
	uniform := dyn.Snapshot()
	powered, err := dyn.Apply(Delta{SetPower: []PowerUpdate{{Station: 0, Power: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*Snapshot{uniform, powered} {
		allocs := testing.AllocsPerRun(50, func() {
			for _, p := range probes {
				snap.Locate(p)
			}
		})
		if allocs != 0 {
			t.Fatalf("Locate allocates on %v: %g allocs per %d-query run", snap.Network(), allocs, len(probes))
		}
	}
}

func probeGenPoints(seed int64, n int) []geom.Point {
	return workload.NewGenerator(seed).QueryPoints(n, testBox)
}
