package geom

import (
	"fmt"
	"math"
)

// Ball is the closed disk B(C, R) = {q : dist(C, q) <= R}
// (Section 2.1 of the paper).
type Ball struct {
	C Point   // center
	R float64 // radius, >= 0
}

// NewBall returns the ball centered at c with radius r. Negative radii
// are clamped to zero.
func NewBall(c Point, r float64) Ball {
	if r < 0 {
		r = 0
	}
	return Ball{C: c, R: r}
}

// Contains reports whether p is inside the closed ball.
func (b Ball) Contains(p Point) bool { return Dist2(b.C, p) <= b.R*b.R }

// Area returns the area pi*R^2.
func (b Ball) Area() float64 { return math.Pi * b.R * b.R }

// Perimeter returns the circumference 2*pi*R.
func (b Ball) Perimeter() float64 { return 2 * math.Pi * b.R }

// String implements fmt.Stringer.
func (b Ball) String() string { return fmt.Sprintf("B(%v, %.6g)", b.C, b.R) }

// IntersectCircles returns the intersection points of the two circles
// bounding b1 and b2 (the boundaries, not the disks). It returns:
//
//   - 0 points when the circles are disjoint or one strictly contains
//     the other,
//   - 1 point when they are tangent (within tolerance),
//   - 2 points otherwise.
//
// This is the construction at the heart of Lemma 3.10 (merging two
// stations into one equal-energy station located on the intersection
// of two energy circles) and of the noise-removal reduction in
// Section 3.4 of the paper.
func IntersectCircles(b1, b2 Ball) []Point {
	d := Dist(b1.C, b2.C)
	if d < Eps && math.Abs(b1.R-b2.R) < Eps {
		// Coincident circles: infinitely many intersections; report none
		// and let callers handle the degenerate case.
		return nil
	}
	if d > b1.R+b2.R+Eps || d < math.Abs(b1.R-b2.R)-Eps || d == 0 {
		return nil
	}
	// a is the distance from b1.C to the chord midpoint along the
	// center line; h is the half chord length.
	a := (d*d + b1.R*b1.R - b2.R*b2.R) / (2 * d)
	h2 := b1.R*b1.R - a*a
	if h2 < 0 {
		if h2 < -Eps*(1+b1.R*b1.R) {
			return nil
		}
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := b2.C.Sub(b1.C).Scale(1 / d)
	mid := b1.C.Add(dir.Scale(a))
	if h <= Eps*(1+d) {
		return []Point{mid}
	}
	off := dir.Perp().Scale(h)
	return []Point{mid.Add(off), mid.Sub(off)}
}

// Box is an axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
type Box struct {
	Min, Max Point
}

// NewBox returns the box spanned by the two corner points in any order.
func NewBox(a, b Point) Box {
	return Box{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// BoxAround returns the bounding box of ball b.
func BoxAround(b Ball) Box {
	return Box{
		Min: Point{b.C.X - b.R, b.C.Y - b.R},
		Max: Point{b.C.X + b.R, b.C.Y + b.R},
	}
}

// Contains reports whether p lies in the closed box.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Width returns MaxX - MinX.
func (b Box) Width() float64 { return b.Max.X - b.Min.X }

// Height returns MaxY - MinY.
func (b Box) Height() float64 { return b.Max.Y - b.Min.Y }

// Area returns the box area.
func (b Box) Area() float64 { return b.Width() * b.Height() }

// Center returns the box center.
func (b Box) Center() Point { return Midpoint(b.Min, b.Max) }

// Expand returns the box grown by margin on every side.
func (b Box) Expand(margin float64) Box {
	return Box{
		Min: Point{b.Min.X - margin, b.Min.Y - margin},
		Max: Point{b.Max.X + margin, b.Max.Y + margin},
	}
}

// String implements fmt.Stringer.
func (b Box) String() string { return fmt.Sprintf("[%v .. %v]", b.Min, b.Max) }
