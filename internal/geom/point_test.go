package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(Pt(3, -4)), Pt(4, -2)},
		{"sub", Pt(1, 2).Sub(Pt(3, -4)), Pt(-2, 6)},
		{"scale", Pt(1, -2).Scale(2.5), Pt(2.5, -5)},
		{"neg", Pt(1, -2).Neg(), Pt(-1, 2)},
		{"perp", Pt(1, 0).Perp(), Pt(0, 1)},
		{"midpoint", Midpoint(Pt(0, 0), Pt(2, 4)), Pt(1, 2)},
		{"lerp0", Lerp(Pt(1, 1), Pt(3, 5), 0), Pt(1, 1)},
		{"lerp1", Lerp(Pt(1, 1), Pt(3, 5), 1), Pt(3, 5)},
		{"lerpHalf", Lerp(Pt(1, 1), Pt(3, 5), 0.5), Pt(2, 3)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if !ApproxEqual(tc.got, tc.want, 1e-12) {
				t.Fatalf("got %v, want %v", tc.got, tc.want)
			}
		})
	}
}

func TestDotCrossNorm(t *testing.T) {
	if got := Pt(1, 2).Dot(Pt(3, 4)); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := Pt(1, 0).Cross(Pt(0, 1)); got != 1 {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Pt(3, 4).Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, 0), Pt(1, 0), 2},
	}
	for _, tc := range tests {
		if got := Dist(tc.p, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := Dist2(tc.p, tc.q); !almostEqual(got, tc.want*tc.want, 1e-12) {
			t.Errorf("Dist2(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return Dist(a, b) == Dist(b, a) && Dist2(a, b) == Dist2(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Restrict to a sane range to avoid overflow-dominated noise.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	if got := Pt(3, 4).Normalize(); !almostEqual(got.Norm(), 1, 1e-12) {
		t.Errorf("Normalize norm = %v, want 1", got.Norm())
	}
	if got := (Point{}).Normalize(); got != (Point{}) {
		t.Errorf("Normalize zero = %v, want origin", got)
	}
}

func TestPolarPoint(t *testing.T) {
	c := Pt(1, 2)
	for _, theta := range []float64{0, math.Pi / 4, math.Pi / 2, math.Pi, -math.Pi / 3} {
		p := PolarPoint(c, 2.5, theta)
		if !almostEqual(Dist(c, p), 2.5, 1e-12) {
			t.Errorf("theta=%v: dist = %v, want 2.5", theta, Dist(c, p))
		}
		if !almostEqual(math.Mod(p.Sub(c).Angle()-theta+4*math.Pi, 2*math.Pi), 0, 1e-9) &&
			!almostEqual(math.Mod(p.Sub(c).Angle()-theta+4*math.Pi, 2*math.Pi), 2*math.Pi, 1e-9) {
			t.Errorf("theta=%v: angle = %v", theta, p.Sub(c).Angle())
		}
	}
}

func TestOrientation(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c Point
		want    int
	}{
		{"ccw", Pt(0, 0), Pt(1, 0), Pt(0, 1), 1},
		{"cw", Pt(0, 0), Pt(0, 1), Pt(1, 0), -1},
		{"collinear", Pt(0, 0), Pt(1, 1), Pt(2, 2), 0},
		{"collinearFar", Pt(0, 0), Pt(1e3, 1e3), Pt(2e3, 2e3), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Orientation(tc.a, tc.b, tc.c); got != tc.want {
				t.Fatalf("Orientation = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestPerpIsOrthogonalProperty(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		if math.Abs(x) > 1e150 || math.Abs(y) > 1e150 {
			// x*y would overflow float64; skip (Inf - Inf is NaN).
			return true
		}
		p := Pt(x, y)
		return p.Dot(p.Perp()) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
