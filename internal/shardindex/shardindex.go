package shardindex

import (
	"iter"
	"math"
	"slices"
)

// Box is a closed axis-aligned rectangle. A Box with MaxX < MinX or
// MaxY < MinY is treated as empty: it is indexed nowhere and contains
// no point.
type Box struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the closed box contains (x, y).
func (b Box) Contains(x, y float64) bool {
	return x >= b.MinX && x <= b.MaxX && y >= b.MinY && y <= b.MaxY
}

// empty reports whether the box holds no point (or has a non-finite
// coordinate, which the grid arithmetic cannot place).
func (b Box) empty() bool {
	if b.MaxX < b.MinX || b.MaxY < b.MinY {
		return true
	}
	for _, v := range [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// maxCellsPerBox caps the grid at O(n) cells: a skewed box set (one
// giant box over thousands of tiny ones) would otherwise explode the
// cell count when the pitch follows the small boxes.
const maxCellsPerBox = 16

// minCells floors the grid so tiny box sets still get enough cells to
// separate disjoint boxes.
const minCells = 64

// dynPadFraction is the margin BuildDyn adds around the union extent
// of the initial box set, as a fraction of the larger span. Stations
// arriving near — but outside — the original deployment still fit the
// grid, so a trickle of arrivals stays on the incremental path instead
// of forcing a geometry rebuild per event.
const dynPadFraction = 0.25

// Stats describes an index: grid shape, occupancy and the
// candidate-list size distribution the query path will see.
type Stats struct {
	Boxes      int     // boxes indexed (empty boxes excluded)
	Cols, Rows int     // grid shape
	CellSize   float64 // grid pitch
	Occupied   int     // cells with at least one candidate
	MaxPerCell int     // worst-case candidate list length
	AvgPerCell float64 // mean candidate list length over occupied cells
}

// Index is a uniform grid over id-keyed cover boxes whose cell
// geometry is fixed when it is built and whose per-cell candidate
// lists are updated copy-on-write. An Index value is immutable —
// Update returns a new index sharing every untouched cell with its
// parent — so concurrent readers of an old epoch never observe a newer
// epoch's edits. The zero value is an empty index (no candidates
// anywhere); use Build or BuildDyn.
//
// Ids are caller-assigned: the station index for Build, the dynamic
// network's stable station slots for BuildDyn. The boxes slice is
// indexed by id and may extend past the ids currently inserted; an
// index holds only the ids inserted into it, so a departed station is
// removed from its cells and Candidates never returns stale ids.
type Index struct {
	originX, originY float64
	cell             float64
	cols, rows       int
	boxes            []Box     // id-indexed view
	cells            [][]int32 // per-cell candidate ids; nil = empty
	n                int       // ids currently inserted
}

// Build indexes a fixed box set. Box i keeps id i (the caller's
// station index); empty and non-finite boxes are indexed nowhere but
// keep their ids. The input slice is copied, so callers may reuse it.
// The grid spans the union of the boxes without padding. Build returns
// nil only when that union overflows float64 (coordinates near
// ±math.MaxFloat64), where no grid can place a point; callers then
// answer without the grid.
func Build(boxes []Box) *Index {
	own := append([]Box(nil), boxes...)
	live := make([]int32, 0, len(own))
	for id, b := range own {
		if !b.empty() {
			live = append(live, int32(id))
		}
	}
	if len(live) == 0 {
		return &Index{boxes: own}
	}
	return build(own, own, live, 0)
}

// BuildDyn indexes boxes[id] for the ids in live, sharing boxes with
// the caller, which may append to it but must not change a live id's
// box. The grid extent is the union of the live boxes padded by
// dynPadFraction, so near-future arrivals fit without a rebuild (see
// Update). It returns nil when the live set is empty, when any live
// box is empty or non-finite — an unbounded cover box (e.g. a
// noiseless network's infinite reception range) cannot be gridded —
// or when a live box cannot be placed; the caller must then answer
// without the fast H- exit.
func BuildDyn(boxes []Box, live []int32) *Index {
	return BuildFramed(boxes, boxes, live)
}

// BuildFramed is BuildDyn with the grid's frame — its padded extent
// and its pitch — laid over frame[id] for the ids in live, while the
// cells list boxes[id]. A caller whose boxes shrink below a stable
// outer bound (the dynamic engine's dominance boxes inside their noise
// boxes) keeps the frame the outer bounds give, so arrivals keep
// fitting it. It returns nil when the live set is empty, when any
// frame box is empty or non-finite, or when a live box cannot be
// placed.
func BuildFramed(frame, boxes []Box, live []int32) *Index {
	if len(live) == 0 {
		return nil
	}
	for _, id := range live {
		if frame[id].empty() {
			return nil
		}
	}
	return build(frame, boxes, live, dynPadFraction)
}

// build lays a grid over the union of the live frame boxes, widened on
// every side by pad times its larger span, and inserts every live id's
// box. The pitch is the mean frame box dimension, so a typical box
// lands in O(1) cells; degenerate all-point box sets fall back to an
// eighth of the extent (or 1 for a single point). It returns nil when
// the extent overflows or a live box cannot be placed.
func build(frame, boxes []Box, live []int32, pad float64) *Index {
	var (
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		sumDim     float64
	)
	for _, id := range live {
		b := frame[id]
		minX = math.Min(minX, b.MinX)
		minY = math.Min(minY, b.MinY)
		maxX = math.Max(maxX, b.MaxX)
		maxY = math.Max(maxY, b.MaxY)
		sumDim += math.Max(b.MaxX-b.MinX, b.MaxY-b.MinY)
	}
	if pad > 0 {
		p := pad * math.Max(maxX-minX, maxY-minY)
		if p <= 0 {
			p = 1
		}
		minX, minY, maxX, maxY = minX-p, minY-p, maxX+p, maxY+p
	}
	spanX, spanY := maxX-minX, maxY-minY
	if math.IsInf(spanX, 0) || math.IsInf(spanY, 0) {
		return nil
	}
	cell := sumDim / float64(len(live))
	if cell <= 0 {
		cell = math.Max(spanX, spanY) / 8
	}
	if cell <= 0 {
		cell = 1
	}
	// Clamp total cells to O(n): coarsen the pitch until the grid fits.
	// Counting in float64 keeps a pitch far below the extent from
	// overflowing the int conversion.
	maxCells := float64(len(live)*maxCellsPerBox + minCells)
	for (math.Floor(spanX/cell)+1)*(math.Floor(spanY/cell)+1) > maxCells {
		cell *= 2
	}
	ix := &Index{
		originX: minX, originY: minY,
		cell: cell,
		cols: int(spanX/cell) + 1, rows: int(spanY/cell) + 1,
		boxes: boxes,
	}
	ix.cells = make([][]int32, ix.cols*ix.rows)
	for _, id := range live {
		if !ix.edit(id, boxes[id], true, nil) {
			return nil
		}
	}
	ix.n = len(live)
	return ix
}

// span returns the cell range of b and whether every point of b falls
// inside the grid. It maps b's corners with Candidates' own
// arithmetic, which is monotone in each coordinate, so every point of
// an in-grid box maps to a cell of its range — even when the pitch is
// below the coordinates' ulp and the float edge of the extent rounds
// onto a box edge. A box reaching past the grid cannot be indexed:
// points in its overhang would be missed.
func (ix *Index) span(b Box) (cx0, cy0, cx1, cy1 int, inside bool) {
	if b.empty() {
		return 0, 0, 0, 0, false
	}
	fx0, fy0 := (b.MinX-ix.originX)/ix.cell, (b.MinY-ix.originY)/ix.cell
	fx1, fy1 := (b.MaxX-ix.originX)/ix.cell, (b.MaxY-ix.originY)/ix.cell
	if !(fx0 >= 0 && fy0 >= 0 && fx1 < float64(ix.cols) && fy1 < float64(ix.rows)) {
		return 0, 0, 0, 0, false
	}
	return int(fx0), int(fy0), int(fx1), int(fy1), true
}

// edit adds id to, or with add false removes it from, every cell box
// overlaps. With a touched map (Update) each cell gets its own backing
// slice the first time it is edited, so the parent index's cell stays
// intact; build owns every cell and passes nil. edit reports false
// when box does not fit the grid.
func (ix *Index) edit(id int32, box Box, add bool, touched map[int]bool) bool {
	cx0, cy0, cx1, cy1, ok := ix.span(box)
	if !ok {
		return false
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			k := cx + cy*ix.cols
			if touched != nil && !touched[k] {
				touched[k] = true
				ix.cells[k] = append([]int32(nil), ix.cells[k]...)
			}
			if add {
				ix.cells[k] = append(ix.cells[k], id)
			} else if i := slices.Index(ix.cells[k], id); i >= 0 {
				ids := ix.cells[k]
				ix.cells[k] = append(ids[:i:i], ids[i+1:]...)
			}
		}
	}
	return true
}

// Update returns a new Index with the removed ids deleted and the
// added ids inserted, sharing every untouched cell with ix. boxes is
// the new id-indexed box view (it must agree with ix's view on every
// surviving id — a station's box never changes under a stable id);
// removed ids are deleted using ix's old view, so their boxes need not
// survive in the new one. cellsTouched counts the privatized cells.
// ok is false when an added box does not fit the fixed grid extent —
// the caller must rebuild the grid geometry (the amortized path);
// ix is left unchanged either way.
func (ix *Index) Update(boxes []Box, removed, added []int32) (nx *Index, cellsTouched int, ok bool) {
	for _, id := range added {
		if _, _, _, _, fits := ix.span(boxes[id]); !fits {
			return nil, 0, false
		}
	}
	nx = &Index{
		originX: ix.originX, originY: ix.originY,
		cell: ix.cell, cols: ix.cols, rows: ix.rows,
		boxes: boxes,
		cells: append([][]int32(nil), ix.cells...),
		n:     ix.n - len(removed) + len(added),
	}
	touched := make(map[int]bool, 4*(len(removed)+len(added)))
	for _, id := range removed {
		nx.edit(id, ix.boxes[id], false, touched)
	}
	for _, id := range added {
		nx.edit(id, boxes[id], true, touched)
	}
	return nx, len(touched), true
}

// Candidates returns the ids whose boxes overlap the grid cell
// containing (x, y) — a superset of the ids whose boxes contain the
// point; callers filter with Contains. The returned slice is a view
// into the index (do not modify); it is nil for points outside the
// grid extent, where no indexed box can contain the point.
//
//sinr:hotpath
func (ix *Index) Candidates(x, y float64) []int32 {
	fx := (x - ix.originX) / ix.cell
	fy := (y - ix.originY) / ix.cell
	if !(fx >= 0 && fy >= 0 && fx < float64(ix.cols) && fy < float64(ix.rows)) {
		return nil
	}
	return ix.cells[int(fx)+int(fy)*ix.cols]
}

// Near yields the ids listed in the cells b overlaps, clipped to the
// grid: every indexed id whose box meets b, and others, once per cell
// that lists it (so an id may repeat). It is not on the query path;
// the dynamic engine finds a station's neighbours with it.
func (ix *Index) Near(b Box) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		fx0, fx1 := (b.MinX-ix.originX)/ix.cell, (b.MaxX-ix.originX)/ix.cell
		fy0, fy1 := (b.MinY-ix.originY)/ix.cell, (b.MaxY-ix.originY)/ix.cell
		// The negated test also rejects NaN corners.
		if !(fx0 <= fx1 && fy0 <= fy1 && fx1 >= 0 && fy1 >= 0 && fx0 < float64(ix.cols) && fy0 < float64(ix.rows)) {
			return
		}
		// Clamp as floats before converting, so an infinite corner
		// cannot overflow int.
		cx1, cy1 := int(math.Min(fx1, float64(ix.cols-1))), int(math.Min(fy1, float64(ix.rows-1)))
		for cy := int(math.Max(fy0, 0)); cy <= cy1; cy++ {
			for cx := int(math.Max(fx0, 0)); cx <= cx1; cx++ {
				for _, id := range ix.cells[cx+cy*ix.cols] {
					if !yield(id) {
						return
					}
				}
			}
		}
	}
}

// Contains reports whether box id contains (x, y). It is the exact
// residual test applied to Candidates entries.
func (ix *Index) Contains(id int32, x, y float64) bool {
	return ix.boxes[id].Contains(x, y)
}

// Covers reports whether any indexed box contains (x, y): one cell
// lookup plus exact tests over that cell's candidates, allocation-free.
// A false answer certifies that no box — hence no reception zone the
// boxes cover — contains the point.
//
//sinr:hotpath
func (ix *Index) Covers(x, y float64) bool {
	for _, id := range ix.Candidates(x, y) {
		if ix.boxes[id].Contains(x, y) {
			return true
		}
	}
	return false
}

// Stats reports the index's grid shape and occupancy, counted over its
// cells in O(cells). A nil index (no grid) reports zero Stats.
func (ix *Index) Stats() Stats {
	if ix == nil {
		return Stats{}
	}
	s := Stats{Boxes: ix.n, Cols: ix.cols, Rows: ix.rows, CellSize: ix.cell}
	items := 0
	for _, ids := range ix.cells {
		if len(ids) > 0 {
			s.Occupied++
			s.MaxPerCell = max(s.MaxPerCell, len(ids))
			items += len(ids)
		}
	}
	if s.Occupied > 0 {
		s.AvgPerCell = float64(items) / float64(s.Occupied)
	}
	return s
}
