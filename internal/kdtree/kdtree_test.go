package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func bruteNearest(pts []geom.Point, q geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if d := geom.Dist(p, q); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestNearestEmptyAndSingle(t *testing.T) {
	if _, _, ok := New(nil).Nearest(geom.Pt(0, 0)); ok {
		t.Error("empty tree must report !ok")
	}
	tree := New([]geom.Point{geom.Pt(2, 3)})
	idx, d, ok := tree.Nearest(geom.Pt(2, 4))
	if !ok || idx != 0 || math.Abs(d-1) > 1e-12 {
		t.Errorf("idx=%d d=%v ok=%v", idx, d, ok)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		}
		tree := New(pts)
		if tree.Len() != n {
			t.Fatalf("Len = %d, want %d", tree.Len(), n)
		}
		for k := 0; k < 50; k++ {
			q := geom.Pt(rng.Float64()*120-60, rng.Float64()*120-60)
			gotIdx, gotD, ok := tree.Nearest(q)
			if !ok {
				t.Fatal("expected ok")
			}
			wantIdx, wantD := bruteNearest(pts, q)
			// Ties can resolve to different indices; compare distances.
			if math.Abs(gotD-wantD) > 1e-9 {
				t.Fatalf("trial %d: nearest dist %v (idx %d), want %v (idx %d)",
					trial, gotD, gotIdx, wantD, wantIdx)
			}
		}
	}
}

func TestNearestExactPointQuery(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(-3, 1)}
	tree := New(pts)
	for i, p := range pts {
		idx, d, ok := tree.Nearest(p)
		if !ok || idx != i || d != 0 {
			t.Errorf("query at site %d: idx=%d d=%v", i, idx, d)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(2, 2)}
	tree := New(pts)
	idx, d, ok := tree.Nearest(geom.Pt(1, 1))
	if !ok || d != 0 || idx != 0 {
		t.Errorf("idx=%d d=%v ok=%v, want lowest-index duplicate 0", idx, d, ok)
	}
}

// TestNearestTieBreakSymmetric puts four stations on a symmetric cross
// and queries Voronoi cell-boundary points that are exactly equidistant
// from two or four stations. The tie must resolve to the lowest
// original index — the convention Network.HeardBy uses — for every
// input ordering of the stations.
func TestNearestTieBreakSymmetric(t *testing.T) {
	cross := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(0, -1)}
	queries := []geom.Point{
		geom.Pt(0, 0),        // center: equidistant from all four
		geom.Pt(0.5, 0.5),    // bisector of stations at (1,0) and (0,1)
		geom.Pt(-0.5, -0.5),  // bisector of (-1,0) and (0,-1)
		geom.Pt(0.25, -0.25), // bisector of (1,0) and (0,-1)
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	for _, perm := range perms {
		pts := make([]geom.Point, len(perm))
		for i, j := range perm {
			pts[i] = cross[j]
		}
		tree := New(pts)
		for _, q := range queries {
			gotIdx, gotD, ok := tree.Nearest(q)
			if !ok {
				t.Fatal("expected ok")
			}
			// Reference: linear scan with lowest-index tie-break.
			wantIdx, wantD2 := -1, math.Inf(1)
			for i, p := range pts {
				if d2 := geom.Dist2(p, q); d2 < wantD2 {
					wantIdx, wantD2 = i, d2
				}
			}
			if gotIdx != wantIdx || math.Abs(gotD*gotD-wantD2) > 1e-12 {
				t.Errorf("perm %v query %v: Nearest = %d (d=%v), want %d",
					perm, q, gotIdx, gotD, wantIdx)
			}
		}
	}
}

// TestNearestMappedAgainstFilteredScan pins NearestMapped to a linear
// scan over the mapped points with (d2, mapped index) ordering —
// including duplicate coordinates, where the tie-break decides.
func TestNearestMappedAgainstFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
		}
		// A random subset survives; survivors are compacted in order,
		// exactly like a dynamic network's index compaction.
		mapped := make([]int, n)
		cur := 0
		for i := range mapped {
			mapped[i] = -1
			if rng.Intn(4) > 0 {
				mapped[i] = cur
				cur++
			}
		}
		remap := func(i int) (int, bool) { return mapped[i], mapped[i] >= 0 }
		tree := New(pts)
		for q := 0; q < 60; q++ {
			p := geom.Pt(rng.Float64()*10-0.5, rng.Float64()*10-0.5)
			wantIdx, wantD2, wantOK := -1, math.Inf(1), false
			for i, s := range pts {
				m, ok := remap(i)
				if !ok {
					continue
				}
				if d2 := geom.Dist2(s, p); d2 < wantD2 || (d2 == wantD2 && m < wantIdx) {
					wantIdx, wantD2, wantOK = m, d2, true
				}
			}
			gotIdx, gotD2, gotOK := tree.NearestMapped(p, remap)
			if gotOK != wantOK {
				t.Fatalf("trial %d: ok = %v, want %v", trial, gotOK, wantOK)
			}
			if wantOK && (gotIdx != wantIdx || gotD2 != wantD2) {
				t.Fatalf("trial %d: NearestMapped(%v) = (%d, %g), want (%d, %g)",
					trial, p, gotIdx, gotD2, wantIdx, wantD2)
			}
		}
	}
}

// TestNearestMappedIdentityAgreesWithNearest: with the identity remap,
// NearestMapped must answer exactly like Nearest.
func TestNearestMappedIdentityAgreesWithNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*4, rng.Float64()*4)
	}
	tree := New(pts)
	identity := func(i int) (int, bool) { return i, true }
	for q := 0; q < 500; q++ {
		p := geom.Pt(rng.Float64()*5-0.5, rng.Float64()*5-0.5)
		wantIdx, wantDist, wantOK := tree.Nearest(p)
		gotIdx, gotD2, gotOK := tree.NearestMapped(p, identity)
		if gotOK != wantOK || gotIdx != wantIdx || math.Abs(math.Sqrt(gotD2)-wantDist) > 1e-12 {
			t.Fatalf("NearestMapped(%v) = (%d, %g, %v), Nearest = (%d, %g, %v)",
				p, gotIdx, math.Sqrt(gotD2), gotOK, wantIdx, wantDist, wantOK)
		}
	}
}
