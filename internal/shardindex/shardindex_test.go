package shardindex

import (
	"math"
	"math/rand"
	"testing"
)

// naiveCovers is the O(n) reference the index must agree with.
func naiveCovers(boxes []Box, x, y float64) bool {
	for _, b := range boxes {
		if !b.empty() && b.Contains(x, y) {
			return true
		}
	}
	return false
}

func TestEmptyIndex(t *testing.T) {
	for _, boxes := range [][]Box{nil, {}, {{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}}} {
		ix := Build(boxes)
		if ix.Covers(0, 0) {
			t.Errorf("empty index covers a point (boxes %v)", boxes)
		}
		if got := ix.Candidates(0, 0); len(got) != 0 {
			t.Errorf("empty index has candidates %v", got)
		}
		if s := ix.Stats(); s.Boxes != 0 {
			t.Errorf("empty index stats report %d boxes", s.Boxes)
		}
	}
}

func TestSingleBox(t *testing.T) {
	ix := Build([]Box{{MinX: -1, MinY: -2, MaxX: 3, MaxY: 4}})
	cases := []struct {
		x, y float64
		want bool
	}{
		{0, 0, true}, {-1, -2, true}, {3, 4, true}, // corners are closed
		{3.0001, 0, false}, {-1.0001, 0, false}, {0, 4.0001, false},
		{100, 100, false}, {-100, -100, false},
	}
	for _, c := range cases {
		if got := ix.Covers(c.x, c.y); got != c.want {
			t.Errorf("Covers(%g, %g) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestCandidatesAreSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	boxes := make([]Box, 200)
	for i := range boxes {
		cx, cy := rng.Float64()*100-50, rng.Float64()*100-50
		w, h := rng.Float64()*4, rng.Float64()*4
		boxes[i] = Box{MinX: cx - w, MinY: cy - h, MaxX: cx + w, MaxY: cy + h}
	}
	ix := Build(boxes)
	for trial := 0; trial < 5000; trial++ {
		x, y := rng.Float64()*140-70, rng.Float64()*140-70
		inCell := map[int32]bool{}
		for _, id := range ix.Candidates(x, y) {
			inCell[id] = true
		}
		for id, b := range boxes {
			if b.Contains(x, y) && !inCell[int32(id)] {
				t.Fatalf("box %d contains (%g, %g) but is not a candidate", id, x, y)
			}
		}
		if got, want := ix.Covers(x, y), naiveCovers(boxes, x, y); got != want {
			t.Fatalf("Covers(%g, %g) = %v, naive = %v", x, y, got, want)
		}
	}
}

func TestPointBoxes(t *testing.T) {
	// All-degenerate boxes (stations sharing locations produce point
	// cover boxes): pitch must fall back sanely and lookups stay exact.
	boxes := []Box{
		{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1},
		{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5},
	}
	ix := Build(boxes)
	if !ix.Covers(1, 1) || !ix.Covers(5, 5) {
		t.Fatal("point boxes must cover their own location")
	}
	if ix.Covers(3, 3) {
		t.Fatal("midpoint between point boxes must not be covered")
	}
}

func TestSinglePointBox(t *testing.T) {
	ix := Build([]Box{{MinX: 2, MinY: 3, MaxX: 2, MaxY: 3}})
	if !ix.Covers(2, 3) {
		t.Fatal("single point box must cover itself")
	}
	if ix.Covers(2.5, 3) {
		t.Fatal("single point box must not cover other points")
	}
}

func TestSkewedSizesStayBounded(t *testing.T) {
	// One huge box over many tiny ones: the cell-count clamp must keep
	// the grid O(n) while answers stay exact.
	rng := rand.New(rand.NewSource(7))
	boxes := []Box{{MinX: -1e4, MinY: -1e4, MaxX: 1e4, MaxY: 1e4}}
	for i := 0; i < 99; i++ {
		cx, cy := rng.Float64()*10-5, rng.Float64()*10-5
		boxes = append(boxes, Box{MinX: cx, MinY: cy, MaxX: cx + 0.01, MaxY: cy + 0.01})
	}
	ix := Build(boxes)
	s := ix.Stats()
	if s.Cols*s.Rows > len(boxes)*maxCellsPerBox+minCells {
		t.Fatalf("grid has %d cells for %d boxes — clamp failed", s.Cols*s.Rows, len(boxes))
	}
	for trial := 0; trial < 2000; trial++ {
		x, y := rng.Float64()*3e4-1.5e4, rng.Float64()*3e4-1.5e4
		if got, want := ix.Covers(x, y), naiveCovers(boxes, x, y); got != want {
			t.Fatalf("Covers(%g, %g) = %v, naive = %v", x, y, got, want)
		}
	}
}

func TestNonFiniteBoxesSkipped(t *testing.T) {
	boxes := []Box{
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: math.Inf(-1), MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
	}
	ix := Build(boxes)
	if s := ix.Stats(); s.Boxes != 1 {
		t.Fatalf("stats count %d boxes, want 1 (non-finite skipped)", s.Boxes)
	}
	if !ix.Covers(0.5, 0.5) {
		t.Fatal("finite box must still be indexed")
	}
}

func TestCandidatesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	boxes := make([]Box, 64)
	for i := range boxes {
		cx, cy := rng.Float64()*20-10, rng.Float64()*20-10
		boxes[i] = Box{MinX: cx - 1, MinY: cy - 1, MaxX: cx + 1, MaxY: cy + 1}
	}
	ix := Build(boxes)
	pts := make([][2]float64, 256)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64()*24 - 12, rng.Float64()*24 - 12}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			ix.Covers(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("Covers allocates %.1f times per 256 queries, want 0", allocs)
	}
}

func TestStatsShape(t *testing.T) {
	boxes := []Box{
		{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2},
		{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12},
	}
	ix := Build(boxes)
	s := ix.Stats()
	if s.Boxes != 2 || s.Occupied == 0 || s.MaxPerCell < 1 || s.AvgPerCell < 1 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}
