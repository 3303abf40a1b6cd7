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
	// In the second case the boxes sit three ulps apart at x = 1e6: the
	// pitch (an eighth of the extent) is below the coordinates' ulp, so
	// the extent's float edge (origin + cols*pitch) rounds onto the far
	// box. A placement test in any arithmetic other than the lookup's
	// own rejects that box, and an index built without it would certify
	// H- at a covered point.
	far := 1e6
	for range 3 {
		far = math.Nextafter(far, math.Inf(1))
	}
	for _, c := range []struct{ p, q, between [2]float64 }{
		{[2]float64{1, 1}, [2]float64{5, 5}, [2]float64{3, 3}},
		{[2]float64{1e6, 0}, [2]float64{far, 0}, [2]float64{math.Nextafter(1e6, far), 0}},
	} {
		ix := Build([]Box{
			{MinX: c.p[0], MinY: c.p[1], MaxX: c.p[0], MaxY: c.p[1]},
			{MinX: c.q[0], MinY: c.q[1], MaxX: c.q[0], MaxY: c.q[1]},
		})
		if !ix.Covers(c.p[0], c.p[1]) || !ix.Covers(c.q[0], c.q[1]) {
			t.Fatalf("point boxes at %v and %v must cover their own location", c.p, c.q)
		}
		if ix.Covers(c.between[0], c.between[1]) {
			t.Fatalf("%v between the point boxes at %v and %v must not be covered", c.between, c.p, c.q)
		}
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
	if s.Cols*s.Rows == 0 || s.CellSize <= 0 {
		t.Fatalf("degenerate grid shape: %+v", s)
	}
}

// TestBuildOverflowingExtent: boxes whose union spans more than
// math.MaxFloat64 leave no grid arithmetic that can place a point, so
// both builders return nil instead of a grid that misses them.
func TestBuildOverflowingExtent(t *testing.T) {
	boxes := []Box{
		{MinX: -1e308, MinY: 0, MaxX: -1e308, MaxY: 0},
		{MinX: 1e308, MinY: 0, MaxX: 1e308, MaxY: 0},
	}
	if ix := Build(boxes); ix != nil {
		t.Fatalf("Build over an overflowing extent returned a grid: %+v", ix.Stats())
	}
	if ix := BuildDyn(boxes, []int32{0, 1}); ix != nil {
		t.Fatalf("BuildDyn over an overflowing extent returned a grid: %+v", ix.Stats())
	}
	if s := (*Index)(nil).Stats(); s != (Stats{}) {
		t.Fatalf("nil index reports %+v, want zero Stats", s)
	}
}

// The cases below drive BuildDyn's padded grids and Update's
// copy-on-write path.

// dynBoxAround builds the square cover box of radius r around (x, y).
func dynBoxAround(x, y, r float64) Box {
	return Box{MinX: x - r, MinY: y - r, MaxX: x + r, MaxY: y + r}
}

// bruteCovers is the reference answer: does any live box contain (x,y)?
func bruteCovers(boxes []Box, live []int32, x, y float64) bool {
	for _, id := range live {
		if boxes[id].Contains(x, y) {
			return true
		}
	}
	return false
}

func TestDynIndexBuildMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	boxes := make([]Box, 40)
	live := make([]int32, 0, len(boxes))
	for i := range boxes {
		boxes[i] = dynBoxAround(rng.Float64()*10-5, rng.Float64()*10-5, 0.3+rng.Float64())
		live = append(live, int32(i))
	}
	d := BuildDyn(boxes, live)
	if d == nil {
		t.Fatal("BuildDyn returned nil for finite boxes")
	}
	if s := d.Stats(); s.Boxes != len(live) {
		t.Fatalf("Stats().Boxes = %d, want %d", s.Boxes, len(live))
	}
	for i := 0; i < 3000; i++ {
		x, y := rng.Float64()*16-8, rng.Float64()*16-8
		if got, want := d.Covers(x, y), bruteCovers(boxes, live, x, y); got != want {
			t.Fatalf("Covers(%g, %g) = %v, want %v", x, y, got, want)
		}
	}
}

func TestDynIndexUpdateMatchesBruteAndIsPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	boxes := make([]Box, 0, 128)
	live := []int32{}
	for i := 0; i < 24; i++ {
		boxes = append(boxes, dynBoxAround(rng.Float64()*8-4, rng.Float64()*8-4, 0.4))
		live = append(live, int32(i))
	}
	d := BuildDyn(boxes, live)
	if d == nil {
		t.Fatal("BuildDyn returned nil")
	}

	type epoch struct {
		d    *Index
		live []int32
	}
	history := []epoch{{d, append([]int32(nil), live...)}}

	for step := 0; step < 30; step++ {
		var removed, added []int32
		if len(live) > 4 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			removed = []int32{live[i]}
			live = append(live[:i:i], live[i+1:]...)
		} else {
			// Arrive well inside the padded extent so the incremental
			// path is taken.
			id := int32(len(boxes))
			boxes = append(boxes, dynBoxAround(rng.Float64()*6-3, rng.Float64()*6-3, 0.4))
			added = []int32{id}
			live = append(live, id)
		}
		nd, touched, ok := d.Update(boxes, removed, added)
		if !ok {
			t.Fatalf("step %d: in-extent update demanded a rebuild", step)
		}
		if touched == 0 {
			t.Fatalf("step %d: update touched no cells", step)
		}
		d = nd
		history = append(history, epoch{d, append([]int32(nil), live...)})
	}

	// Every historical epoch — including ones superseded many updates
	// ago — must still answer from its own box set: the COW must never
	// let a later update leak into an older index.
	for ei, e := range history {
		for i := 0; i < 400; i++ {
			x, y := rng.Float64()*12-6, rng.Float64()*12-6
			if got, want := e.d.Covers(x, y), bruteCovers(boxes, e.live, x, y); got != want {
				t.Fatalf("epoch %d: Covers(%g, %g) = %v, want %v", ei, x, y, got, want)
			}
		}
	}
}

func TestDynIndexOutOfExtentAddRequiresRebuild(t *testing.T) {
	boxes := []Box{dynBoxAround(0, 0, 1), dynBoxAround(2, 2, 1)}
	d := BuildDyn(boxes, []int32{0, 1})
	if d == nil {
		t.Fatal("BuildDyn returned nil")
	}
	boxes = append(boxes, dynBoxAround(100, 100, 1))
	if _, _, ok := d.Update(boxes, nil, []int32{2}); ok {
		t.Fatal("far-outside arrival did not demand a rebuild")
	}
	// The failed update must leave d fully usable.
	if !d.Covers(0, 0) || d.Covers(50, 50) {
		t.Fatal("index damaged by a rejected update")
	}
}

func TestDynIndexNonFiniteBoxDisables(t *testing.T) {
	inf := math.Inf(1)
	boxes := []Box{dynBoxAround(0, 0, 1), {MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}}
	if d := BuildDyn(boxes, []int32{0, 1}); d != nil {
		t.Fatal("BuildDyn accepted an unbounded box")
	}
	if d := BuildDyn(nil, nil); d != nil {
		t.Fatal("BuildDyn accepted an empty live set")
	}
}

func TestDynIndexCoversAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	boxes := make([]Box, 64)
	live := make([]int32, len(boxes))
	for i := range boxes {
		boxes[i] = dynBoxAround(rng.Float64()*10, rng.Float64()*10, 0.5)
		live[i] = int32(i)
	}
	d := BuildDyn(boxes, live)
	pts := make([][2]float64, 256)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64() * 12, rng.Float64() * 12}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			d.Covers(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("Covers allocates: %g allocs per 256-query run", allocs)
	}
}

// TestBuildFramedKeepsTheFrame: a grid framed by large boxes but
// listing small ones inside them has the large boxes' geometry, answers
// Covers for the small ones, and takes an Update whose small box lies
// where only a large one reaches.
func TestBuildFramedKeepsTheFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frame := make([]Box, 30)
	boxes := make([]Box, 30, 31)
	live := make([]int32, 0, len(frame))
	for i := range frame {
		x, y := rng.Float64()*10-5, rng.Float64()*10-5
		frame[i] = dynBoxAround(x, y, 2)
		boxes[i] = dynBoxAround(x, y, 0.1+0.3*rng.Float64())
		live = append(live, int32(i))
	}
	d := BuildFramed(frame, boxes, live)
	if d == nil {
		t.Fatal("BuildFramed returned nil for finite boxes")
	}
	if got, want := d.Stats(), BuildDyn(frame, live).Stats(); got.Cols != want.Cols || got.Rows != want.Rows || got.CellSize != want.CellSize {
		t.Fatalf("framed grid %+v, want the frame's geometry %+v", got, want)
	}
	for i := 0; i < 3000; i++ {
		x, y := rng.Float64()*16-8, rng.Float64()*16-8
		if got, want := d.Covers(x, y), bruteCovers(boxes, live, x, y); got != want {
			t.Fatalf("Covers(%g, %g) = %v, want %v", x, y, got, want)
		}
	}
	boxes = append(boxes, dynBoxAround(6.5, 6.5, 0.1))
	if _, _, ok := d.Update(boxes, nil, []int32{30}); !ok {
		t.Fatal("an arrival inside the padded frame demanded a rebuild")
	}
}

// TestNearYieldsEveryOverlappingID: Near lists every indexed id whose
// box meets the query box (once or more), for queries inside, across
// and beyond the grid's edge, and nothing for empty or NaN queries.
func TestNearYieldsEveryOverlappingID(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	boxes := make([]Box, 50)
	live := make([]int32, 0, len(boxes))
	for i := range boxes {
		boxes[i] = dynBoxAround(rng.Float64()*10-5, rng.Float64()*10-5, 0.2+rng.Float64())
		live = append(live, int32(i))
	}
	d := BuildDyn(boxes, live)
	if d == nil {
		t.Fatal("BuildDyn returned nil")
	}
	meets := func(a, b Box) bool {
		return a.MinX <= b.MaxX && b.MinX <= a.MaxX && a.MinY <= b.MaxY && b.MinY <= a.MaxY
	}
	for k := 0; k < 500; k++ {
		q := dynBoxAround(rng.Float64()*30-15, rng.Float64()*30-15, rng.Float64()*4)
		if k == 0 {
			q = Box{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
		}
		seen := map[int32]bool{}
		for id := range d.Near(q) {
			seen[id] = true
		}
		for _, id := range live {
			if meets(boxes[id], q) && !seen[id] {
				t.Fatalf("Near(%+v) misses id %d with box %+v", q, id, boxes[id])
			}
		}
	}
	for _, q := range []Box{{MinX: 1, MinY: 1, MaxX: 0, MaxY: 2}, {MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}} {
		for id := range d.Near(q) {
			t.Fatalf("Near(%+v) yielded id %d", q, id)
		}
	}
}
