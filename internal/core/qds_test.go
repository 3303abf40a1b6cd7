package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func buildTestQDS(t *testing.T, n *Network, k int, eps float64) *QDS {
	t.Helper()
	q, err := n.BuildQDS(k, eps)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuildQDSValidation(t *testing.T) {
	n := twoStation(t)
	for _, eps := range []float64{0, 1, -0.5, 1.5} {
		if _, err := n.BuildQDS(0, eps); err == nil {
			t.Errorf("eps = %v should fail", eps)
		}
	}
	if _, err := n.BuildQDS(7, 0.2); err == nil {
		t.Error("out-of-range station should fail")
	}
	nb := mustNet(t, n.Stations(), 0, 1)
	if _, err := nb.BuildQDS(0, 0.2); err == nil {
		t.Error("beta = 1 should fail")
	}
	nu, err := NewNetwork(n.Stations(), 0, 4, WithPowers([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nu.BuildQDS(0, 0.2); err == nil {
		t.Error("non-uniform should fail")
	}
}

func TestQDSPointZone(t *testing.T) {
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(2, 0)}, 0, 4)
	q := buildTestQDS(t, n, 0, 0.2)
	if q.NumUncertainCells() != 0 {
		t.Errorf("point zone |T?| = %d", q.NumUncertainCells())
	}
	if got := q.Classify(geom.Pt(0, 0)); got != TQuestion {
		t.Errorf("station point classify = %v", got)
	}
	if got := q.Classify(geom.Pt(1, 1)); got != TMinus {
		t.Errorf("other point classify = %v", got)
	}
}

// TestQDSInvariantsTheorem3 validates the three guarantees of
// Theorem 3 by dense sampling on several networks:
//
//	(1) every T+ sample is truly in the zone,
//	(2) every T- sample is truly outside,
//	(3) area(H?) <= eps * area(H_i).
func TestQDSInvariantsTheorem3(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nets := []*Network{
		twoStation(t),
		mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(-1, 2.5), geom.Pt(1.5, -2)}, 0.01, 3),
		mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(1.2, 0.4), geom.Pt(-0.8, 1.1), geom.Pt(0.3, -1.4), geom.Pt(2.2, 2.0)}, 0.05, 2),
	}
	for ni, n := range nets {
		const eps = 0.2
		q := buildTestQDS(t, n, 0, eps)
		z, _ := n.Zone(0)

		// Invariants (1) and (2) by sampling around the zone.
		ext := q.Bounds().DeltaUpper * 1.5
		s := n.Station(0)
		for i := 0; i < 4000; i++ {
			p := geom.Pt(s.X+(rng.Float64()*2-1)*ext, s.Y+(rng.Float64()*2-1)*ext)
			inZone := z.Contains(p)
			switch q.Classify(p) {
			case TPlus:
				if !inZone {
					t.Fatalf("net %d: T+ cell contains out-of-zone point %v (SINR=%v)", ni, p, n.SINR(0, p))
				}
			case TMinus:
				if inZone {
					t.Fatalf("net %d: T- cell contains in-zone point %v (SINR=%v)", ni, p, n.SINR(0, p))
				}
			}
		}

		// Invariant (3): uncertainty area at most eps fraction.
		area, err := z.ApproxArea(720, q.Gamma()/32)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.UncertainArea(); got > eps*area {
			t.Errorf("net %d: area(H?) = %v > eps * area = %v", ni, got, eps*area)
		}
	}
}

// TestQDSVerifyColumns cross-checks the structure against the exact
// Sturm segment-test machinery.
func TestQDSVerifyColumns(t *testing.T) {
	n := mustNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1), geom.Pt(-1.5, 1.5)}, 0.02, 2.5)
	q := buildTestQDS(t, n, 0, 0.25)
	bad, err := q.VerifyColumns()
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d uncovered boundary crossings", bad)
	}
}

// TestQDSEpsScaling: |T?| should grow like 1/eps (Section 5.1 sizing).
func TestQDSEpsScaling(t *testing.T) {
	n := twoStation(t)
	var counts []int
	epss := []float64{0.4, 0.2, 0.1}
	for _, eps := range epss {
		q := buildTestQDS(t, n, 0, eps)
		counts = append(counts, q.NumUncertainCells())
	}
	// Halving eps should roughly double |T?| (within a factor 1.4..2.8).
	for i := 1; i < len(counts); i++ {
		ratio := float64(counts[i]) / float64(counts[i-1])
		if ratio < 1.4 || ratio > 2.9 {
			t.Errorf("eps %v -> %v: |T?| ratio = %v (counts %v), want ~2",
				epss[i-1], epss[i], ratio, counts)
		}
	}
}

func TestQDSAccessors(t *testing.T) {
	n := twoStation(t)
	q := buildTestQDS(t, n, 0, 0.3)
	if q.Station() != 0 {
		t.Errorf("Station = %d", q.Station())
	}
	if q.Eps() != 0.3 {
		t.Errorf("Eps = %v", q.Eps())
	}
	if q.Gamma() <= 0 {
		t.Errorf("Gamma = %v", q.Gamma())
	}
	if q.NumColumns() <= 0 {
		t.Error("no columns stored")
	}
	if q.NumUncertainCells() <= 0 {
		t.Error("no uncertain cells")
	}
	b := q.Bounds()
	if b.DeltaLower <= 0 || b.DeltaUpper < b.DeltaLower {
		t.Errorf("bounds = %+v", b)
	}
	// gamma formula: eps * delta~^2 / (GammaSafety * Delta~).
	want := 0.3 * b.DeltaLower * b.DeltaLower / (GammaSafety * b.DeltaUpper)
	if math.Abs(q.Gamma()-want) > 1e-12*want {
		t.Errorf("Gamma = %v, want %v", q.Gamma(), want)
	}
}

func TestQDSClassifyFarPoint(t *testing.T) {
	n := twoStation(t)
	q := buildTestQDS(t, n, 0, 0.2)
	if got := q.Classify(geom.Pt(100, 100)); got != TMinus {
		t.Errorf("far point = %v, want T-", got)
	}
	if got := q.Classify(geom.Pt(0, 0)); got == TMinus {
		t.Errorf("station cell = %v, want interior or ring", got)
	}
}

// TestQDSStationCellInterior: the station itself must never be
// classified T- (it is always in its zone).
func TestQDSStationCellInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		pts := make([]geom.Point, 3+rng.Intn(4))
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)
		}
		n := mustNet(t, pts, 0.01, 2+rng.Float64()*3)
		if n.SharesLocation(0) {
			continue
		}
		q := buildTestQDS(t, n, 0, 0.2)
		if got := q.Classify(n.Station(0)); got == TMinus {
			t.Fatalf("trial %d: station classified T-", trial)
		}
	}
}

// TestQDSRingMatchesNineCellUnion pins the column-merge assembly of the
// T? ring to its definition: the union of the 9-cells of the cells the
// boundary trace visits. The reference ring is a set built from the
// same trace. Every station's |T?| and column count must match it, and
// every cell centre of a swept station's cover box must classify as the
// set's column rule says: T? in the set, T+ strictly between its
// column's outermost T? rows, T- otherwise.
func TestQDSRingMatchesNineCellUnion(t *testing.T) {
	for _, size := range []int{8, 24} {
		net := testNetwork(t, int64(100+size), size)
		for _, eps := range []float64{0.1, 0.3} {
			for k := 0; k < net.NumStations(); k++ {
				q := buildTestQDS(t, net, k, eps)
				z, _ := net.Zone(k)
				trace, err := z.TraceBoundary(q.Gamma(), BRPOptions{})
				if err != nil {
					t.Fatal(err)
				}
				grid, err := NewGrid(net.Station(k), q.Gamma())
				if err != nil {
					t.Fatal(err)
				}
				ring := map[Cell]struct{}{}
				for _, p := range trace {
					for _, c := range grid.NineCell(grid.CellOf(p)) {
						ring[c] = struct{}{}
					}
				}
				if got, want := q.NumUncertainCells(), len(ring); got != want {
					t.Fatalf("n=%d eps=%v station %d: |T?| = %d, 9-cell union has %d", size, eps, k, got, want)
				}
				// The set's rows per column, sorted, so the sweep below
				// reads the rule off in order instead of by lookup.
				rows := map[int][]int{}
				for c := range ring {
					rows[c.Col] = append(rows[c.Col], c.Row)
				}
				for _, rr := range rows {
					sort.Ints(rr)
				}
				if got, want := q.NumColumns(), len(rows); got != want {
					t.Fatalf("n=%d eps=%v station %d: %d columns, 9-cell union spans %d", size, eps, k, got, want)
				}
				// A cover box holds about (80 phi^2 / eps)^2 cells for
				// fatness phi, some 6M at eps = 0.1, so every fourth
				// station is swept.
				if k%4 == 0 {
					if c, got, want := sweepCoverBox(q, grid, rows); got != want {
						t.Fatalf("n=%d eps=%v station %d: cell %v classifies %v, 9-cell rule says %v",
							size, eps, k, c, got, want)
					}
				}
				s := net.Station(k)
				nan, inf := math.NaN(), math.Inf(1)
				for _, p := range []geom.Point{
					{X: nan, Y: s.Y}, {X: s.X, Y: nan}, {X: nan, Y: nan},
					{X: inf, Y: s.Y}, {X: -inf, Y: s.Y}, {X: s.X, Y: inf}, {X: s.X, Y: -inf},
					{X: inf, Y: -inf},
				} {
					if got := q.Classify(p); got != TMinus {
						t.Fatalf("n=%d eps=%v station %d: Classify(%v) = %v, want T-", size, eps, k, p, got)
					}
				}
			}
		}
	}
}

// sweepCoverBox classifies the centre of every cell of q's cover box
// and returns the first cell whose class differs from the column rule
// over rows, the sorted T? rows of each column, with both classes.
func sweepCoverBox(q *QDS, grid Grid, rows map[int][]int) (Cell, CellType, CellType) {
	box := q.CoverBox()
	lo, hi := grid.CellOf(box.Min), grid.CellOf(box.Max)
	for col := lo.Col; col <= hi.Col; col++ {
		rr := rows[col]
		next := 0 // rr[next] is the first T? row at or above row
		for row := lo.Row; row <= hi.Row; row++ {
			want := TMinus
			switch {
			case next < len(rr) && rr[next] == row:
				want = TQuestion
				next++
			case len(rr) > 0 && row > rr[0] && row < rr[len(rr)-1]:
				want = TPlus
			}
			c := Cell{Col: col, Row: row}
			if got := q.Classify(grid.CellCenter(c)); got != want {
				return c, got, want
			}
		}
	}
	return Cell{}, TMinus, TMinus
}
