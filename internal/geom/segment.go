package geom

import (
	"fmt"
	"math"
)

// Segment is the closed line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Dir returns the (non-normalized) direction vector B - A.
func (s Segment) Dir() Point { return s.B.Sub(s.A) }

// At returns the point A + t*(B-A). At(0) == A, At(1) == B.
func (s Segment) At(t float64) Point { return Lerp(s.A, s.B, t) }

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("[%v -> %v]", s.A, s.B) }

// ClosestParam returns the parameter t in [0, 1] minimizing
// dist(At(t), p), i.e. the projection of p clamped to the segment.
func (s Segment) ClosestParam(p Point) float64 {
	d := s.Dir()
	den := d.Norm2()
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return math.Max(0, math.Min(1, t))
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Point) Point { return s.At(s.ClosestParam(p)) }

// DistTo returns the distance from p to the segment.
func (s Segment) DistTo(p Point) float64 { return Dist(p, s.ClosestPoint(p)) }

// Contains reports whether p lies on the segment within tolerance eps.
func (s Segment) Contains(p Point, eps float64) bool { return s.DistTo(p) <= eps }

// Line is the infinite line through Origin-point P with direction D.
// D need not be normalized but must be nonzero for meaningful results.
type Line struct {
	P Point // a point on the line
	D Point // direction vector
}

// LineOf returns the supporting line of segment s.
func (s Segment) LineOf() Line { return Line{P: s.A, D: s.Dir()} }

// At returns the point P + t*D.
func (l Line) At(t float64) Point { return l.P.Add(l.D.Scale(t)) }

// Project returns the parameter t such that At(t) is the orthogonal
// projection of p onto the line.
func (l Line) Project(p Point) float64 {
	den := l.D.Norm2()
	if den == 0 {
		return 0
	}
	return p.Sub(l.P).Dot(l.D) / den
}

// SeparationLine returns the perpendicular bisector of p1 and p2: the
// locus of points equidistant from both (Section 2.1 of the paper).
// The returned line passes through the midpoint with direction
// perpendicular to p2 - p1.
func SeparationLine(p1, p2 Point) Line {
	return Line{P: Midpoint(p1, p2), D: p2.Sub(p1).Perp()}
}

// IntersectLines returns the intersection parameters (t, u) such that
// a.At(t) == b.At(u), and ok=false when the lines are parallel (within
// a relative tolerance).
func IntersectLines(a, b Line) (t, u float64, ok bool) {
	den := a.D.Cross(b.D)
	scale := a.D.Norm() * b.D.Norm()
	if math.Abs(den) <= Eps*(1+scale) {
		return 0, 0, false
	}
	w := b.P.Sub(a.P)
	t = w.Cross(b.D) / den
	u = w.Cross(a.D) / den
	return t, u, true
}
