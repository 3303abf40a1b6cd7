package shardindex

import "math"

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

// Stats describes a built index: grid shape, occupancy and the
// candidate-list size distribution the query path will see.
type Stats struct {
	Boxes      int     // boxes indexed (empty boxes excluded)
	Cols, Rows int     // grid shape
	CellSize   float64 // grid pitch
	Occupied   int     // cells with at least one candidate
	MaxPerCell int     // worst-case candidate list length
	AvgPerCell float64 // mean candidate list length over occupied cells
}

// Index is an immutable uniform-grid index over a fixed box set. The
// zero value is an empty index (no candidates anywhere); use Build.
type Index struct {
	boxes []Box
	// Grid: cell (cx, cy) covers [originX + cx*cell, originX + (cx+1)*cell) x ...
	originX, originY float64
	cell             float64
	cols, rows       int
	// CSR-style storage: the candidate ids of cell k = cx + cy*cols
	// are items[cellStart[k]:cellStart[k+1]].
	cellStart []int32
	items     []int32
	stats     Stats
}

// Build indexes the given boxes. Box i keeps id i (the caller's
// station index); empty boxes are skipped but ids are preserved. The
// input slice is copied, so callers may reuse it.
func Build(boxes []Box) *Index {
	ix := &Index{boxes: append([]Box(nil), boxes...)}

	// Union extent and average box size over the non-empty boxes.
	var (
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		sumDim     float64
		n          int
	)
	for _, b := range ix.boxes {
		if b.empty() {
			continue
		}
		n++
		minX = math.Min(minX, b.MinX)
		minY = math.Min(minY, b.MinY)
		maxX = math.Max(maxX, b.MaxX)
		maxY = math.Max(maxY, b.MaxY)
		sumDim += math.Max(b.MaxX-b.MinX, b.MaxY-b.MinY)
	}
	if n == 0 {
		return ix
	}

	// Pitch at the average box dimension puts a typical box in O(1)
	// cells; degenerate all-point box sets fall back to the union
	// extent (or 1 for a single point).
	cell := sumDim / float64(n)
	if cell <= 0 {
		cell = math.Max(maxX-minX, maxY-minY) / 8
	}
	if cell <= 0 {
		cell = 1
	}
	spanX, spanY := maxX-minX, maxY-minY
	cols := int(spanX/cell) + 1
	rows := int(spanY/cell) + 1
	// Clamp total cells to O(n): coarsen the pitch until the grid fits.
	maxCells := n*maxCellsPerBox + minCells
	for cols*rows > maxCells {
		cell *= 2
		cols = int(spanX/cell) + 1
		rows = int(spanY/cell) + 1
	}
	ix.originX, ix.originY = minX, minY
	ix.cell = cell
	ix.cols, ix.rows = cols, rows

	// Two-pass CSR fill: count per cell, prefix-sum, then place ids.
	counts := make([]int32, cols*rows+1)
	span := func(b Box) (cx0, cy0, cx1, cy1 int) {
		cx0 = ix.clampCol(int((b.MinX - minX) / cell))
		cy0 = ix.clampRow(int((b.MinY - minY) / cell))
		cx1 = ix.clampCol(int((b.MaxX - minX) / cell))
		cy1 = ix.clampRow(int((b.MaxY - minY) / cell))
		return
	}
	for _, b := range ix.boxes {
		if b.empty() {
			continue
		}
		cx0, cy0, cx1, cy1 := span(b)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				counts[cx+cy*cols+1]++
			}
		}
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	ix.cellStart = counts
	ix.items = make([]int32, counts[len(counts)-1])
	next := make([]int32, cols*rows)
	copy(next, counts[:cols*rows])
	for id, b := range ix.boxes {
		if b.empty() {
			continue
		}
		cx0, cy0, cx1, cy1 := span(b)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				k := cx + cy*cols
				ix.items[next[k]] = int32(id)
				next[k]++
			}
		}
	}

	ix.stats = Stats{Boxes: n, Cols: cols, Rows: rows, CellSize: cell}
	for k := 0; k < cols*rows; k++ {
		ln := int(ix.cellStart[k+1] - ix.cellStart[k])
		if ln > 0 {
			ix.stats.Occupied++
			if ln > ix.stats.MaxPerCell {
				ix.stats.MaxPerCell = ln
			}
		}
	}
	if ix.stats.Occupied > 0 {
		ix.stats.AvgPerCell = float64(len(ix.items)) / float64(ix.stats.Occupied)
	}
	return ix
}

func (ix *Index) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= ix.cols {
		return ix.cols - 1
	}
	return c
}

func (ix *Index) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= ix.rows {
		return ix.rows - 1
	}
	return r
}

// Candidates returns the ids of the boxes overlapping the grid cell
// containing (x, y) — a superset of the boxes containing the point;
// callers filter with Contains. The returned slice is a view into the
// index (do not modify); it is empty for points outside the grid.
//
//sinr:hotpath
func (ix *Index) Candidates(x, y float64) []int32 {
	if len(ix.cellStart) == 0 {
		return nil
	}
	fx := (x - ix.originX) / ix.cell
	fy := (y - ix.originY) / ix.cell
	if fx < 0 || fy < 0 || fx >= float64(ix.cols) || fy >= float64(ix.rows) {
		return nil
	}
	k := int(fx) + int(fy)*ix.cols
	return ix.items[ix.cellStart[k]:ix.cellStart[k+1]]
}

// Contains reports whether box id contains (x, y). It is the exact
// residual test applied to Candidates entries.
func (ix *Index) Contains(id int32, x, y float64) bool {
	return ix.boxes[id].Contains(x, y)
}

// Covers reports whether any indexed box contains (x, y):
// one cell lookup plus exact tests over that cell's candidate list.
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

// Len returns the number of boxes the index was built over (including
// empty ones, which are indexed nowhere).
func (ix *Index) Len() int { return len(ix.boxes) }

// Stats returns the build-time statistics of the index.
func (ix *Index) Stats() Stats { return ix.stats }
