package shardindex

import "math"

// dynPadFraction is the margin BuildDyn adds around the union extent
// of the initial box set, as a fraction of the larger span. Stations
// arriving near — but outside — the original deployment still fit the
// grid, so a trickle of arrivals stays on the incremental path instead
// of forcing a geometry rebuild per event.
const dynPadFraction = 0.25

// maxDynCellsPerBox caps the dynamic grid at O(n) cells, mirroring
// maxCellsPerBox of the static Index but with headroom left for churn.
const maxDynCellsPerBox = 8

// DynIndex is the incrementally maintainable sibling of Index: a
// uniform grid over id-keyed cover boxes whose cell geometry is fixed
// at build time and whose per-cell candidate lists are updated
// copy-on-write. A DynIndex value is immutable — Update returns a new
// index sharing every untouched cell with its parent — so concurrent
// readers of an old epoch never observe a newer epoch's edits.
//
// Ids are caller-assigned (the dynamic-network stable station slots);
// the boxes slice is indexed by id and may extend past the ids
// currently inserted. Unlike Index, a DynIndex holds only the ids the
// caller inserted: a departed station is removed from its cells, so
// Candidates never returns stale ids.
type DynIndex struct {
	originX, originY float64
	cell             float64
	cols, rows       int
	boxes            []Box     // id-indexed view (shared with the caller)
	cells            [][]int32 // per-cell candidate ids; nil = empty
	n                int       // ids currently inserted
}

// BuildDyn builds a DynIndex over boxes[id] for the ids in live. The
// grid extent is the union of the live boxes padded by dynPadFraction,
// so near-future arrivals fit without a rebuild. It returns nil when
// the live set is empty or any live box is empty or non-finite — an
// unbounded cover box (e.g. a noiseless network's infinite reception
// range) cannot be gridded, and the caller must fall back to answering
// without the fast H- exit.
func BuildDyn(boxes []Box, live []int32) *DynIndex {
	if len(live) == 0 {
		return nil
	}
	var (
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		sumDim     float64
	)
	for _, id := range live {
		b := boxes[id]
		if b.empty() {
			return nil
		}
		minX = math.Min(minX, b.MinX)
		minY = math.Min(minY, b.MinY)
		maxX = math.Max(maxX, b.MaxX)
		maxY = math.Max(maxY, b.MaxY)
		sumDim += math.Max(b.MaxX-b.MinX, b.MaxY-b.MinY)
	}
	pad := dynPadFraction * math.Max(maxX-minX, maxY-minY)
	if pad <= 0 {
		pad = 1
	}
	minX, minY, maxX, maxY = minX-pad, minY-pad, maxX+pad, maxY+pad

	n := len(live)
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
	maxCells := n*maxDynCellsPerBox + minCells
	for cols*rows > maxCells {
		cell *= 2
		cols = int(spanX/cell) + 1
		rows = int(spanY/cell) + 1
	}
	d := &DynIndex{
		originX: minX, originY: minY,
		cell: cell, cols: cols, rows: rows,
		boxes: boxes,
		cells: make([][]int32, cols*rows),
	}
	for _, id := range live {
		if !d.insert(id, nil) {
			// Cannot happen: every live box is inside the padded extent.
			return nil
		}
	}
	d.n = n
	return d
}

// span returns the cell range of b, clamped to the grid, and whether b
// lies entirely inside the grid extent (a box reaching past the extent
// cannot be indexed: points in its overhang would be missed).
func (d *DynIndex) span(b Box) (cx0, cy0, cx1, cy1 int, inside bool) {
	if b.empty() {
		return 0, 0, 0, 0, false
	}
	if b.MinX < d.originX || b.MinY < d.originY ||
		b.MaxX >= d.originX+float64(d.cols)*d.cell ||
		b.MaxY >= d.originY+float64(d.rows)*d.cell {
		return 0, 0, 0, 0, false
	}
	cx0 = int((b.MinX - d.originX) / d.cell)
	cy0 = int((b.MinY - d.originY) / d.cell)
	cx1 = int((b.MaxX - d.originX) / d.cell)
	cy1 = int((b.MaxY - d.originY) / d.cell)
	return cx0, cy0, cx1, cy1, true
}

// insert adds id to every cell its box overlaps, privatizing cells via
// touched. It reports false when the box does not fit the grid.
func (d *DynIndex) insert(id int32, touched map[int]bool) bool {
	cx0, cy0, cx1, cy1, ok := d.span(d.boxes[id])
	if !ok {
		return false
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			k := cx + cy*d.cols
			d.privatize(k, touched)
			d.cells[k] = append(d.cells[k], id)
		}
	}
	return true
}

// remove drops id from every cell its box overlaps, privatizing cells
// via touched. The box must be the one id was inserted with.
func (d *DynIndex) remove(id int32, box Box, touched map[int]bool) {
	cx0, cy0, cx1, cy1, ok := d.span(box)
	if !ok {
		return
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			k := cx + cy*d.cols
			d.privatize(k, touched)
			ids := d.cells[k]
			for i, got := range ids {
				if got == id {
					d.cells[k] = append(ids[:i:i], ids[i+1:]...)
					break
				}
			}
		}
	}
}

// privatize gives cell k its own backing slice the first time an
// Update touches it, so the parent index's cell stays intact. A nil
// touched map (BuildDyn, which owns every cell) skips the copy.
func (d *DynIndex) privatize(k int, touched map[int]bool) {
	if touched == nil || touched[k] {
		return
	}
	touched[k] = true
	d.cells[k] = append([]int32(nil), d.cells[k]...)
}

// Update returns a new DynIndex with the removed ids deleted and the
// added ids inserted, sharing every untouched cell with d. boxes is
// the new id-indexed box view (it must agree with d's view on every
// surviving id — a station's box never changes under a stable id);
// removed ids are deleted using d's old view, so their boxes need not
// survive in the new one. cellsTouched counts the privatized cells.
// ok is false when an added box does not fit the fixed grid extent —
// the caller must rebuild the grid geometry (the amortized path);
// d is left unchanged either way.
func (d *DynIndex) Update(boxes []Box, removed, added []int32) (nd *DynIndex, cellsTouched int, ok bool) {
	for _, id := range added {
		if _, _, _, _, fits := d.span(boxes[id]); !fits {
			return nil, 0, false
		}
	}
	nd = &DynIndex{
		originX: d.originX, originY: d.originY,
		cell: d.cell, cols: d.cols, rows: d.rows,
		boxes: boxes,
		cells: append([][]int32(nil), d.cells...),
		n:     d.n - len(removed) + len(added),
	}
	touched := make(map[int]bool, 4*(len(removed)+len(added)))
	for _, id := range removed {
		nd.remove(id, d.boxes[id], touched)
	}
	for _, id := range added {
		nd.insert(id, touched)
	}
	return nd, len(touched), true
}

// Candidates returns the ids whose boxes overlap the grid cell
// containing (x, y) — a superset of the ids whose boxes contain the
// point. The returned slice is a view into the index (do not modify);
// it is nil for points outside the grid extent, where no indexed box
// can contain the point.
//
//sinr:hotpath
func (d *DynIndex) Candidates(x, y float64) []int32 {
	fx := (x - d.originX) / d.cell
	fy := (y - d.originY) / d.cell
	if fx < 0 || fy < 0 || fx >= float64(d.cols) || fy >= float64(d.rows) {
		return nil
	}
	return d.cells[int(fx)+int(fy)*d.cols]
}

// Covers reports whether any inserted box contains (x, y): one cell
// lookup plus exact tests over that cell's candidates, allocation-free.
// A false answer certifies that no box — hence no reception zone the
// boxes cover — contains the point.
//
//sinr:hotpath
func (d *DynIndex) Covers(x, y float64) bool {
	for _, id := range d.Candidates(x, y) {
		if d.boxes[id].Contains(x, y) {
			return true
		}
	}
	return false
}

// Len returns the number of ids currently inserted.
func (d *DynIndex) Len() int { return d.n }
