package geom

import (
	"testing"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if got := s.At(0.5); !ApproxEqual(got, Pt(1.5, 2), 1e-12) {
		t.Errorf("At(0.5) = %v", got)
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	tests := []struct {
		name string
		p    Point
		want Point
	}{
		{"interior", Pt(4, 3), Pt(4, 0)},
		{"beforeA", Pt(-5, 2), Pt(0, 0)},
		{"afterB", Pt(20, -1), Pt(10, 0)},
		{"onSegment", Pt(7, 0), Pt(7, 0)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := s.ClosestPoint(tc.p); !ApproxEqual(got, tc.want, 1e-12) {
				t.Fatalf("ClosestPoint(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
	// Degenerate segment.
	d := Seg(Pt(1, 1), Pt(1, 1))
	if got := d.ClosestPoint(Pt(5, 5)); !ApproxEqual(got, Pt(1, 1), 1e-12) {
		t.Errorf("degenerate ClosestPoint = %v", got)
	}
}

func TestSegmentContains(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(2, 2))
	if !s.Contains(Pt(1, 1), 1e-9) {
		t.Error("midpoint should be contained")
	}
	if s.Contains(Pt(1, 1.1), 1e-9) {
		t.Error("off-segment point should not be contained")
	}
	if s.Contains(Pt(3, 3), 1e-9) {
		t.Error("beyond-endpoint point should not be contained")
	}
}

func TestLineProjectAndDist(t *testing.T) {
	l := Seg(Pt(0, 1), Pt(2, 1)).LineOf() // horizontal line y = 1
	tproj := l.Project(Pt(5, 4))
	if got := l.At(tproj); !ApproxEqual(got, Pt(5, 1), 1e-12) {
		t.Errorf("projection = %v, want (5,1)", got)
	}
	if got := Dist(l.At(tproj), Pt(5, 4)); !almostEqual(got, 3, 1e-12) {
		t.Errorf("distance to line = %v, want 3", got)
	}
}

func TestSeparationLine(t *testing.T) {
	a, b := Pt(0, 0), Pt(4, 0)
	l := SeparationLine(a, b)
	// Every point on the separation line is equidistant from a and b.
	for _, tt := range []float64{-2, -0.5, 0, 1, 3.7} {
		p := l.At(tt)
		if da, db := Dist(a, p), Dist(b, p); !almostEqual(da, db, 1e-9) {
			t.Errorf("t=%v: dist(a)=%v dist(b)=%v", tt, da, db)
		}
	}
}

func TestIntersectLines(t *testing.T) {
	a := Seg(Pt(0, 0), Pt(1, 1)).LineOf()
	b := Seg(Pt(0, 2), Pt(1, 1)).LineOf() // crosses at (1,1)
	tt, _, ok := IntersectLines(a, b)
	if !ok {
		t.Fatal("expected intersection")
	}
	if got := a.At(tt); !ApproxEqual(got, Pt(1, 1), 1e-9) {
		t.Errorf("intersection = %v, want (1,1)", got)
	}

	// Parallel lines.
	c := Seg(Pt(0, 0), Pt(1, 0)).LineOf()
	d := Seg(Pt(0, 1), Pt(1, 1)).LineOf()
	if _, _, ok := IntersectLines(c, d); ok {
		t.Error("parallel lines should not intersect")
	}
}

func TestSegmentDistToRange(t *testing.T) {
	// Distance from a point to a segment is never negative and never
	// exceeds the distance to either endpoint.
	s := Seg(Pt(-1, -1), Pt(2, 5))
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(-3, 2), Pt(2, 5)} {
		d := s.DistTo(p)
		if d < 0 {
			t.Errorf("negative distance for %v", p)
		}
		if d > Dist(p, s.A)+1e-12 || d > Dist(p, s.B)+1e-12 {
			t.Errorf("distance %v exceeds endpoint distances for %v", d, p)
		}
	}
}

func TestLineAtMonotone(t *testing.T) {
	l := Line{P: Pt(1, 1), D: Pt(2, 0)}
	if got := l.At(0); !ApproxEqual(got, Pt(1, 1), 0) {
		t.Errorf("At(0) = %v", got)
	}
	if got := l.At(1); !ApproxEqual(got, Pt(3, 1), 0) {
		t.Errorf("At(1) = %v", got)
	}
	if got := l.At(-0.5); !ApproxEqual(got, Pt(0, 1), 0) {
		t.Errorf("At(-0.5) = %v", got)
	}
}
