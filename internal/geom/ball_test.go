package geom

import (
	"math"
	"sort"
	"testing"
)

func TestBallContains(t *testing.T) {
	b := NewBall(Pt(1, 1), 2)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(1, 1), true},
		{Pt(3, 1), true}, // on boundary
		{Pt(3.1, 1), false},
		{Pt(1, -1), true}, // on boundary
		{Pt(-2, -2), false},
	}
	for _, tc := range tests {
		if got := b.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestNewBallClampsNegativeRadius(t *testing.T) {
	if b := NewBall(Origin, -3); b.R != 0 {
		t.Errorf("R = %v, want 0", b.R)
	}
}

func TestBallAreaPerimeter(t *testing.T) {
	b := NewBall(Origin, 2)
	if got := b.Area(); !almostEqual(got, 4*math.Pi, 1e-12) {
		t.Errorf("Area = %v", got)
	}
	if got := b.Perimeter(); !almostEqual(got, 4*math.Pi, 1e-12) {
		t.Errorf("Perimeter = %v", got)
	}
}

func TestIntersectCircles(t *testing.T) {
	tests := []struct {
		name   string
		b1, b2 Ball
		nWant  int
	}{
		{"twoPoints", NewBall(Pt(0, 0), 2), NewBall(Pt(2, 0), 2), 2},
		{"tangentExternal", NewBall(Pt(0, 0), 1), NewBall(Pt(2, 0), 1), 1},
		{"tangentInternal", NewBall(Pt(0, 0), 2), NewBall(Pt(1, 0), 1), 1},
		{"disjoint", NewBall(Pt(0, 0), 1), NewBall(Pt(5, 0), 1), 0},
		{"nested", NewBall(Pt(0, 0), 5), NewBall(Pt(1, 0), 1), 0},
		{"coincident", NewBall(Pt(0, 0), 1), NewBall(Pt(0, 0), 1), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pts := IntersectCircles(tc.b1, tc.b2)
			if len(pts) != tc.nWant {
				t.Fatalf("got %d points %v, want %d", len(pts), pts, tc.nWant)
			}
			for _, p := range pts {
				if d := Dist(tc.b1.C, p); !almostEqual(d, tc.b1.R, 1e-9) {
					t.Errorf("point %v not on circle 1: dist %v vs R %v", p, d, tc.b1.R)
				}
				if d := Dist(tc.b2.C, p); !almostEqual(d, tc.b2.R, 1e-9) {
					t.Errorf("point %v not on circle 2: dist %v vs R %v", p, d, tc.b2.R)
				}
			}
		})
	}
}

func TestIntersectCirclesKnownValues(t *testing.T) {
	// Circles of radius sqrt(2) centered at (0,0) and (2,0) meet at
	// (1, 1) and (1, -1).
	pts := IntersectCircles(NewBall(Pt(0, 0), math.Sqrt2), NewBall(Pt(2, 0), math.Sqrt2))
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Y > pts[j].Y })
	if !ApproxEqual(pts[0], Pt(1, 1), 1e-9) || !ApproxEqual(pts[1], Pt(1, -1), 1e-9) {
		t.Errorf("points = %v", pts)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(Pt(2, 5), Pt(-1, 1)) // corners in arbitrary order
	if b.Min != Pt(-1, 1) || b.Max != Pt(2, 5) {
		t.Fatalf("box = %v", b)
	}
	if got := b.Width(); got != 3 {
		t.Errorf("Width = %v", got)
	}
	if got := b.Height(); got != 4 {
		t.Errorf("Height = %v", got)
	}
	if got := b.Area(); got != 12 {
		t.Errorf("Area = %v", got)
	}
	if got := b.Center(); !ApproxEqual(got, Pt(0.5, 3), 1e-12) {
		t.Errorf("Center = %v", got)
	}
	if !b.Contains(Pt(0, 2)) || b.Contains(Pt(3, 2)) {
		t.Error("Contains misclassification")
	}
	e := b.Expand(1)
	if e.Min != Pt(-2, 0) || e.Max != Pt(3, 6) {
		t.Errorf("Expand = %v", e)
	}
}

func TestBoxAround(t *testing.T) {
	box := BoxAround(NewBall(Pt(1, 2), 3))
	if box.Min != Pt(-2, -1) || box.Max != Pt(4, 5) {
		t.Errorf("box = %v", box)
	}
}
