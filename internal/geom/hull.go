package geom

import "sort"

// ConvexHull returns the convex hull of pts in counterclockwise order
// using Andrew's monotone chain algorithm, O(n log n). Collinear points
// on the hull boundary are dropped. Degenerate inputs return what is
// available: fewer than three non-coincident points yield a hull with
// fewer than three vertices.
func ConvexHull(pts []Point) []Point {
	if len(pts) < 3 {
		out := make([]Point, len(pts))
		copy(out, pts)
		return out
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate coincident points.
	dedup := sorted[:1]
	for _, p := range sorted[1:] {
		if !ApproxEqual(p, dedup[len(dedup)-1], Eps) {
			dedup = append(dedup, p)
		}
	}
	sorted = dedup
	if len(sorted) < 3 {
		return sorted
	}

	var hull []Point
	// Lower hull.
	for _, p := range sorted {
		for len(hull) >= 2 && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(sorted) - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hull) >= lower && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// Polygon is a simple polygon given by its vertices in order
// (counterclockwise for positive area).
type Polygon []Point

// Area returns the signed area via the shoelace formula: positive for
// counterclockwise orientation.
func (pg Polygon) Area() float64 {
	if len(pg) < 3 {
		return 0
	}
	var s float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		s += p.Cross(q)
	}
	return s / 2
}

// Perimeter returns the total boundary length.
func (pg Polygon) Perimeter() float64 {
	if len(pg) < 2 {
		return 0
	}
	var s float64
	for i, p := range pg {
		s += Dist(p, pg[(i+1)%len(pg)])
	}
	return s
}

// IsConvex reports whether the polygon is convex (all turns the same
// orientation, collinear runs allowed).
func (pg Polygon) IsConvex() bool {
	n := len(pg)
	if n < 3 {
		return true
	}
	sign := 0
	for i := 0; i < n; i++ {
		o := Orientation(pg[i], pg[(i+1)%n], pg[(i+2)%n])
		if o == 0 {
			continue
		}
		if sign == 0 {
			sign = o
		} else if o != sign {
			return false
		}
	}
	return true
}

// Contains reports whether p lies inside or on the polygon boundary
// (even-odd rule with boundary tolerance).
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if Seg(pg[i], pg[(i+1)%n]).Contains(p, Eps) {
			return true
		}
	}
	inside := false
	for i, a := range pg {
		b := pg[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if x > p.X {
				inside = !inside
			}
		}
	}
	return inside
}
