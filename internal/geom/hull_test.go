package geom

import (
	"math/rand"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1),
		Pt(0.5, 0.5), Pt(0.25, 0.75), // interior points
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull has %d vertices: %v", len(hull), hull)
	}
	if !Polygon(hull).IsConvex() {
		t.Error("hull not convex")
	}
	if got := Polygon(hull).Area(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("area = %v, want 1", got)
	}
}

func TestConvexHullCollinear(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}
	hull := ConvexHull(pts)
	if len(hull) > 2 {
		t.Fatalf("collinear hull has %d vertices: %v", len(hull), hull)
	}
}

func TestConvexHullSmallInputs(t *testing.T) {
	if got := ConvexHull(nil); len(got) != 0 {
		t.Errorf("nil input: %v", got)
	}
	if got := ConvexHull([]Point{Pt(1, 2)}); len(got) != 1 {
		t.Errorf("single point: %v", got)
	}
	if got := ConvexHull([]Point{Pt(1, 2), Pt(3, 4)}); len(got) != 2 {
		t.Errorf("two points: %v", got)
	}
	// Duplicates collapse.
	if got := ConvexHull([]Point{Pt(1, 2), Pt(1, 2), Pt(1, 2)}); len(got) != 1 {
		t.Errorf("duplicates: %v", got)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		pts := make([]Point, 50)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		}
		hull := Polygon(ConvexHull(pts))
		if !hull.IsConvex() {
			t.Fatalf("trial %d: hull not convex", trial)
		}
		for _, p := range pts {
			if !hull.Contains(p) {
				t.Fatalf("trial %d: hull misses point %v", trial, p)
			}
		}
	}
}

func TestPolygonArea(t *testing.T) {
	tests := []struct {
		name string
		pg   Polygon
		want float64
	}{
		{"ccwTriangle", Polygon{Pt(0, 0), Pt(2, 0), Pt(0, 2)}, 2},
		{"cwTriangle", Polygon{Pt(0, 0), Pt(0, 2), Pt(2, 0)}, -2},
		{"unitSquare", Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}, 1},
		{"degenerate", Polygon{Pt(0, 0), Pt(1, 1)}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.pg.Area(); !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("Area = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPolygonPerimeter(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	if got := sq.Perimeter(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Perimeter = %v, want 4", got)
	}
	if got := (Polygon{Pt(1, 1)}).Perimeter(); got != 0 {
		t.Errorf("single-vertex perimeter = %v", got)
	}
}

func TestPolygonIsConvex(t *testing.T) {
	convex := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if !convex.IsConvex() {
		t.Error("square should be convex")
	}
	nonConvex := Polygon{Pt(0, 0), Pt(2, 0), Pt(1, 0.5), Pt(2, 2), Pt(0, 2)}
	if nonConvex.IsConvex() {
		t.Error("dented polygon should not be convex")
	}
}

func TestPolygonContains(t *testing.T) {
	pg := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(2, 2), true},
		{Pt(0, 0), true}, // vertex
		{Pt(2, 0), true}, // edge
		{Pt(5, 2), false},
		{Pt(-1, -1), false},
		{Pt(2, 4.001), false},
	}
	for _, tc := range tests {
		if got := pg.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}
