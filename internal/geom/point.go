package geom

import (
	"fmt"
	"math"
)

// Eps is the default absolute tolerance used by geometric predicates.
// It is deliberately coarse relative to float64 machine epsilon because
// the SINR boundary polynomials accumulate O(n^2) floating point error.
const Eps = 1e-9

// Point is a point (or free vector) in the Euclidean plane R^2.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Origin is the point (0, 0).
var Origin = Point{}

// Add returns p + q (vector addition).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q (vector subtraction).
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns the scalar product c * p.
func (p Point) Scale(c float64) Point { return Point{c * p.X, c * p.Y} }

// Neg returns -p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Dot returns the inner product <p, q>.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p x q.
// It is positive when q lies counterclockwise from p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean norm |p|.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean norm |p|^2.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance dist(p, q).
func Dist(p, q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
// The SINR energy formula with path-loss alpha = 2 consumes squared
// distances directly, avoiding a square root per station.
func Dist2(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Midpoint returns the midpoint of the segment p q.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Lerp returns the point (1-t)*p + t*q. Lerp(p, q, 0) == p and
// Lerp(p, q, 1) == q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Normalize returns the unit vector p / |p|. It returns the zero vector
// when |p| == 0.
func (p Point) Normalize() Point {
	n := p.Norm()
	if n == 0 {
		return Point{}
	}
	return Point{p.X / n, p.Y / n}
}

// Perp returns p rotated by +90 degrees, i.e. (-y, x).
func (p Point) Perp() Point { return Point{-p.Y, p.X} }

// Angle returns the polar angle of p in (-pi, pi].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// PolarPoint returns the point at distance r from c in direction theta.
func PolarPoint(c Point, r, theta float64) Point {
	return Point{c.X + r*math.Cos(theta), c.Y + r*math.Sin(theta)}
}

// ApproxEqual reports whether p and q coincide within tolerance eps in
// each coordinate.
func ApproxEqual(p, q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Orientation classifies the turn a -> b -> c: +1 for counterclockwise,
// -1 for clockwise, 0 for collinear (within Eps scaled by magnitude).
func Orientation(a, b, c Point) int {
	cross := b.Sub(a).Cross(c.Sub(a))
	scale := b.Sub(a).Norm() * c.Sub(a).Norm()
	tol := Eps * (1 + scale)
	switch {
	case cross > tol:
		return 1
	case cross < -tol:
		return -1
	default:
		return 0
	}
}
