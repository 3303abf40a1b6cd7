package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// CellType classifies a grid cell relative to a reception zone
// (Section 5.1): T+ cells are fully inside the zone, T- cells do not
// intersect it, and T? cells form the bounded uncertainty ring around
// the boundary.
type CellType int

// Cell classifications.
const (
	TMinus    CellType = iota // outside the zone
	TPlus                     // inside the zone
	TQuestion                 // uncertainty ring straddling the boundary
)

// String implements fmt.Stringer.
func (t CellType) String() string {
	switch t {
	case TPlus:
		return "T+"
	case TMinus:
		return "T-"
	case TQuestion:
		return "T?"
	default:
		return fmt.Sprintf("CellType(%d)", int(t))
	}
}

// GammaSafety is the denominator constant in the grid-pitch formula
// gamma = eps * delta~^2 / (GammaSafety * Delta~). The paper derives
// 18 from its 9-cell accounting; we use a slightly larger constant to
// absorb the denser sampling of the star-shape BRP trace, keeping the
// area(H?) <= eps * area(H) guarantee with margin.
const GammaSafety = 40

// QDS is the per-zone approximate point-location structure of
// Section 5.1: a gamma-spaced grid whose cells are classified T+, T-
// or T?, stored as one entry per grid column holding that column's T?
// row intervals. Size is O(#T? cells) = O(eps^-1); queries are O(1)
// plus an O(log) binary search within a column's interval list.
type QDS struct {
	net     *Network
	station int
	grid    Grid
	eps     float64
	bounds  ZoneBounds
	// spans holds the T? row intervals of the grid columns colMin,
	// colMin+1, ... in column order; column colMin+j holds
	// spans[colStart[j]:colStart[j+1]]. A column outside the table, or
	// one with no intervals, is all T-. (An int32 start overflows only
	// past 2^31 intervals, 32 GiB of them.)
	spans    []rowSpan
	colStart []int32
	colMin   int
	// numUncertain is the total count of T? cells.
	numUncertain int
	// pointZone marks degenerate zones (shared station location):
	// every cell is T- except the station point itself, which is T?
	// and resolves to not-heard under the interferer-coincidence
	// convention of Network.SINR.
	pointZone bool
}

// rowSpan is an inclusive row range [Lo, Hi].
type rowSpan struct {
	Lo, Hi int
}

// rowSpans are the sorted, disjoint T? row intervals of one grid
// column. Rows strictly between the column's outermost T? rows that
// fall in no interval are T+; all other rows are T-.
type rowSpans []rowSpan

// BuildQDS constructs the Section 5.1 data structure for station k's
// reception zone with performance parameter 0 < eps < 1. Requirements
// mirror the paper's: uniform power, alpha = 2, beta > 1 (so the zone
// is compact, convex and fat) and a non-trivial network. A station
// whose location is shared by another yields a degenerate point-zone
// structure.
func (n *Network) BuildQDS(k int, eps float64) (*QDS, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: performance parameter eps must be in (0, 1), got %v", eps)
	}
	if n.alpha != 2 {
		return nil, ErrNeedAlpha2
	}
	if !n.uniform {
		return nil, ErrNeedUniform
	}
	if n.beta <= 1 {
		return nil, ErrNeedBetaGT1
	}
	if k < 0 || k >= len(n.stations) {
		return nil, fmt.Errorf("core: station index %d out of range [0, %d)", k, len(n.stations))
	}
	if n.SharesLocation(k) {
		return &QDS{net: n, station: k, eps: eps, pointZone: true}, nil
	}

	bounds, err := n.SampledBounds(k, 128)
	if err != nil {
		return nil, err
	}
	gamma := eps * bounds.DeltaLower * bounds.DeltaLower / (GammaSafety * bounds.DeltaUpper)
	grid, err := NewGrid(n.stations[k], gamma)
	if err != nil {
		return nil, err
	}

	z, err := n.Zone(k)
	if err != nil {
		return nil, err
	}
	trace, err := z.TraceBoundary(gamma, BRPOptions{})
	if err != nil {
		return nil, err
	}

	// Visited boundary cells, inflated to their 9-cells (the paper's
	// ♯C), become the T? ring.
	var visited []Cell
	for _, p := range trace {
		c := grid.CellOf(p)
		if len(visited) > 0 && visited[len(visited)-1] == c {
			continue
		}
		visited = append(visited, c)
	}
	slices.SortFunc(visited, func(a, b Cell) int {
		if a.Col != b.Col {
			return cmp.Compare(a.Col, b.Col)
		}
		return cmp.Compare(a.Row, b.Row)
	})
	visited = slices.Compact(visited)

	q := &QDS{
		net:     n,
		station: k,
		grid:    grid,
		eps:     eps,
		bounds:  bounds,
	}
	q.buildRing(visited)
	return q, nil
}

// buildRing stores the union of the 9-cells of the visited cells,
// sorted by (col, row) without duplicates, as per-column T? row
// intervals. Column c of the ring holds the rows r-1..r+1 of every
// visited cell (c', r) with |c' - c| <= 1, so each column is built from
// the rows of three visited columns.
func (q *QDS) buildRing(visited []Cell) {
	if len(visited) == 0 {
		return
	}
	// start[j] is the index in visited of the first cell of column
	// vMin+j; the cells of that column are visited[start[j]:start[j+1]].
	vMin := visited[0].Col
	width := visited[len(visited)-1].Col - vMin + 1
	start := make([]int, width+1)
	for _, c := range visited {
		start[c.Col-vMin+1]++
	}
	for j := 1; j <= width; j++ {
		start[j] += start[j-1]
	}
	column := func(col int) []Cell {
		if j := col - vMin; j >= 0 && j < width {
			return visited[start[j]:start[j+1]]
		}
		return nil
	}

	q.colMin = vMin - 1
	cols := width + 2
	q.colStart = make([]int32, cols+1)
	// The boundary of a convex zone crosses a column at most twice, so
	// the ring has about two intervals a column.
	spans := make([]rowSpan, 0, 2*cols)
	var rows []int // the visited rows of columns col-1, col and col+1
	for j := 0; j < cols; j++ {
		col := q.colMin + j
		rows = rows[:0]
		for d := -1; d <= 1; d++ {
			for _, c := range column(col + d) {
				rows = append(rows, c.Row)
			}
		}
		slices.Sort(rows)
		first := len(spans)
		for _, r := range rows {
			// Rows arrive in order, so [r-1, r+1] either extends the
			// column's last interval or starts the next one.
			if last := len(spans) - 1; last >= first && r-1 <= spans[last].Hi+1 {
				spans[last].Hi = r + 1
			} else {
				spans = append(spans, rowSpan{Lo: r - 1, Hi: r + 1})
			}
		}
		q.colStart[j+1] = int32(len(spans))
	}
	q.spans = spans
	for _, iv := range spans {
		q.numUncertain += iv.Hi - iv.Lo + 1
	}
}

// Station returns the index of the zone's station.
func (q *QDS) Station() int { return q.station }

// Eps returns the performance parameter the structure was built with.
func (q *QDS) Eps() float64 { return q.eps }

// Gamma returns the grid pitch.
func (q *QDS) Gamma() float64 { return q.grid.Gamma }

// Bounds returns the delta/Delta bounds used to size the grid.
func (q *QDS) Bounds() ZoneBounds { return q.bounds }

// NumUncertainCells returns |T?|, the size driver of the structure.
func (q *QDS) NumUncertainCells() int { return q.numUncertain }

// CoverBox returns a box guaranteed to contain every point Classify
// answers T+ or T? for — the zone plus its uncertainty ring. It is
// derived from the stored columns (every non-T- cell lies in a stored
// column between its outermost T? rows) and padded by one grid pitch
// so floating-point disagreement between the box arithmetic and
// CellOf's floor can never misplace a boundary point. Points outside
// the box are certifiably T-, which is what lets a spatial index skip
// this structure entirely for most of the plane.
func (q *QDS) CoverBox() geom.Box {
	if q.pointZone {
		s := q.net.stations[q.station]
		// Classify answers T? only within geom.Eps of the station.
		pad := 2 * geom.Eps
		return geom.NewBox(geom.Pt(s.X-pad, s.Y-pad), geom.Pt(s.X+pad, s.Y+pad))
	}
	if q.numColumns() == 0 {
		// No stored columns: everything is T-; an inverted box indexes
		// nowhere.
		return geom.Box{Min: geom.Pt(1, 1), Max: geom.Pt(-1, -1)}
	}
	// The first and last columns of the table hold T? cells, since the
	// ring is one column wider than the visited cells on each side.
	colMin, colMax := q.colMin, q.colMin+q.numColumns()-1
	rowMin, rowMax := math.MaxInt, math.MinInt
	for j := range q.numColumns() {
		if iv := q.column(j); len(iv) > 0 {
			rowMin = min(rowMin, iv[0].Lo)
			rowMax = max(rowMax, iv[len(iv)-1].Hi)
		}
	}
	pad := q.grid.Gamma
	return geom.NewBox(
		geom.Pt(q.grid.ColumnX(colMin)-pad, q.grid.RowY(rowMin)-pad),
		geom.Pt(q.grid.ColumnX(colMax+1)+pad, q.grid.RowY(rowMax+1)+pad),
	)
}

// NumColumns returns the number of grid columns holding T? cells.
func (q *QDS) NumColumns() int {
	cols := 0
	for j := range q.numColumns() {
		if len(q.column(j)) > 0 {
			cols++
		}
	}
	return cols
}

// numColumns returns the length of the column table.
func (q *QDS) numColumns() int { return max(len(q.colStart)-1, 0) }

// column returns the T? intervals of table column j (grid column
// colMin+j).
func (q *QDS) column(j int) rowSpans { return q.spans[q.colStart[j]:q.colStart[j+1]] }

// UncertainArea returns area(H?) = |T?| * gamma^2.
func (q *QDS) UncertainArea() float64 {
	return float64(q.numUncertain) * q.grid.Gamma * q.grid.Gamma
}

// Classify returns the classification of the cell containing p, in
// O(1) column lookup plus O(log) within-column search. The column and
// row are range-checked as floats, before CellOf's conversion to int,
// so a NaN or infinite coordinate classifies T-.
//
//sinr:hotpath
func (q *QDS) Classify(p geom.Point) CellType {
	if q.pointZone {
		if geom.ApproxEqual(p, q.net.stations[q.station], geom.Eps) {
			return TQuestion
		}
		return TMinus
	}
	g := q.grid
	fx := math.Floor((p.X - g.Anchor.X) / g.Gamma)
	if !(fx >= float64(q.colMin) && fx < float64(q.colMin+q.numColumns())) {
		return TMinus
	}
	iv := q.column(int(fx) - q.colMin)
	if len(iv) == 0 {
		return TMinus
	}
	fy := math.Floor((p.Y - g.Anchor.Y) / g.Gamma)
	if !(fy >= float64(iv[0].Lo) && fy <= float64(iv[len(iv)-1].Hi)) {
		return TMinus
	}
	if iv.covers(int(fy)) {
		return TQuestion
	}
	// Not in any T? interval but strictly between the column's
	// outermost T? rows: there is a T? cell to the north and to the
	// south, so the cell is interior (paper's column rule).
	return TPlus
}

// VerifyColumns cross-checks the structure against the paper's exact
// segment-test machinery: for every stored column it computes the true
// boundary crossings of ∂H_k along the column's center vertical line
// (Sturm root isolation on the boundary polynomial) and verifies each
// crossing row is covered by a T? interval. It returns the number of
// uncovered crossings (0 for a sound structure).
func (q *QDS) VerifyColumns() (int, error) {
	if q.pointZone {
		return 0, nil
	}
	bad := 0
	extent := q.bounds.DeltaUpper * 2
	for j := range q.numColumns() {
		iv := q.column(j)
		if len(iv) == 0 {
			continue
		}
		col := q.colMin + j
		x := q.grid.ColumnX(col) + q.grid.Gamma/2
		line := geom.Line{P: geom.Pt(x, q.grid.Anchor.Y), D: geom.Pt(0, 1)}
		roots, err := q.net.LineBoundaryCrossings(q.station, line, q.grid.Gamma/1024)
		if err != nil {
			return bad, err
		}
		for _, t := range roots {
			if math.Abs(t) > extent {
				continue // crossing of another zone's far lobe, not ours
			}
			row := q.grid.CellOf(line.At(t)).Row
			if !iv.covers(row) {
				bad++
			}
		}
	}
	return bad, nil
}

// covers reports whether an interval of iv holds row.
//
//sinr:hotpath
func (iv rowSpans) covers(row int) bool {
	i := sort.Search(len(iv), func(j int) bool { return iv[j].Hi >= row })
	return i < len(iv) && iv[i].Lo <= row
}
