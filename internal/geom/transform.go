package geom

import (
	"fmt"
	"math"
)

// Transform is a direct similarity transform of the plane: a rotation
// followed by a uniform scaling followed by a translation,
//
//	f(p) = sigma * R(theta) * p + t.
//
// These are exactly the mappings of Lemma 2.3 in the paper: they
// preserve SINR values provided the background noise is rescaled by
// 1/sigma^2. The transform is stored as the complex-like pair (a, b)
// with f(x, y) = (a*x - b*y + tx, b*x + a*y + ty), so sigma^2 = a^2+b^2.
type Transform struct {
	a, b   float64 // rotation+scale: a = sigma*cos(theta), b = sigma*sin(theta)
	tx, ty float64 // translation
}

// Translation returns the transform p -> p + d.
func Translation(d Point) Transform { return Transform{a: 1, tx: d.X, ty: d.Y} }

// Rotation returns the rotation by theta radians about the origin.
func Rotation(theta float64) Transform {
	return Transform{a: math.Cos(theta), b: math.Sin(theta)}
}

// RotationAbout returns the rotation by theta radians about center c.
func RotationAbout(c Point, theta float64) Transform {
	return Translation(c).Compose(Rotation(theta)).Compose(Translation(c.Neg()))
}

// Scaling returns the uniform scaling by sigma > 0 about the origin.
func Scaling(sigma float64) Transform { return Transform{a: sigma} }

// Similarity returns the transform that first rotates by theta, then
// scales by sigma, then translates by d.
func Similarity(theta, sigma float64, d Point) Transform {
	return Translation(d).Compose(Scaling(sigma)).Compose(Rotation(theta))
}

// Apply maps the point p through the transform.
func (t Transform) Apply(p Point) Point {
	return Point{
		X: t.a*p.X - t.b*p.Y + t.tx,
		Y: t.b*p.X + t.a*p.Y + t.ty,
	}
}

// ApplyAll maps every point in pts, returning a new slice.
func (t Transform) ApplyAll(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = t.Apply(p)
	}
	return out
}

// Scale returns the scaling factor sigma of the transform.
func (t Transform) Scale() float64 { return math.Hypot(t.a, t.b) }

// Compose returns the transform "t after u": (t.Compose(u)).Apply(p) ==
// t.Apply(u.Apply(p)).
func (t Transform) Compose(u Transform) Transform {
	return Transform{
		a:  t.a*u.a - t.b*u.b,
		b:  t.b*u.a + t.a*u.b,
		tx: t.a*u.tx - t.b*u.ty + t.tx,
		ty: t.b*u.tx + t.a*u.ty + t.ty,
	}
}

// String implements fmt.Stringer.
func (t Transform) String() string {
	return fmt.Sprintf("Transform{rot/scale=(%.6g,%.6g) shift=(%.6g,%.6g)}", t.a, t.b, t.tx, t.ty)
}
