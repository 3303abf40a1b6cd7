package poly

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRootBound(t *testing.T) {
	// All roots of (x-3)(x+5) = x^2+2x-15 must lie within the bound.
	p := FromRoots(3, -5)
	r := RootBound(p)
	if r < 5 {
		t.Errorf("bound %v too small", r)
	}
	if RootBound(New(7)) != 0 {
		t.Error("constant bound should be 0")
	}
	if RootBound(nil) != 0 {
		t.Error("zero bound should be 0")
	}
}

func TestIsolateRootsSeparates(t *testing.T) {
	p := FromRoots(-4, -1, 2, 7)
	ivs := IsolateRoots(p, -10, 10)
	if len(ivs) != 4 {
		t.Fatalf("got %d intervals %v, want 4", len(ivs), ivs)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	wantRoots := []float64{-4, -1, 2, 7}
	for i, iv := range ivs {
		if wantRoots[i] <= iv.Lo || wantRoots[i] > iv.Hi {
			t.Errorf("interval %v does not hold root %v", iv, wantRoots[i])
		}
		// Disjointness.
		if i > 0 && iv.Lo < ivs[i-1].Hi-1e-12 {
			t.Errorf("intervals overlap: %v and %v", ivs[i-1], iv)
		}
	}
}

func TestIsolateRootsEmpty(t *testing.T) {
	if got := IsolateRoots(New(1, 0, 1), -10, 10); len(got) != 0 {
		t.Errorf("x^2+1 isolation = %v", got)
	}
	if got := IsolateRoots(nil, -1, 1); got != nil {
		t.Errorf("zero poly isolation = %v", got)
	}
}

func TestRefineRootAccuracy(t *testing.T) {
	p := FromRoots(math.Pi) // root at pi
	ivs := IsolateRoots(p, 0, 10)
	if len(ivs) != 1 {
		t.Fatalf("intervals = %v", ivs)
	}
	root := RefineRoot(p, ivs[0], 1e-12)
	if math.Abs(root-math.Pi) > 1e-9 {
		t.Errorf("root = %.15f, want pi", root)
	}
}

func TestRefineRootEvenMultiplicity(t *testing.T) {
	// (x-2)^2 does not change sign; Sturm bisection must still converge.
	p := FromRoots(2, 2)
	root := RefineRoot(p, Interval{0, 5}, 1e-10)
	if math.Abs(root-2) > 1e-5 {
		t.Errorf("root = %v, want 2", root)
	}
}

func TestRealRootsSorted(t *testing.T) {
	p := FromRoots(5, -3, 1)
	roots := CertifiedRealRoots(p, -10, 10, 1e-12)
	want := []float64{-3, 1, 5}
	if len(roots) != 3 {
		t.Fatalf("roots = %v", roots)
	}
	for i := range want {
		if math.Abs(roots[i]-want[i]) > 1e-9 {
			t.Errorf("roots = %v, want %v", roots, want)
		}
	}
}

func TestAllRealRootsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(5)
		want := make([]float64, 0, n)
		used := map[int]bool{}
		for len(want) < n {
			r := rng.Intn(41) - 20
			if !used[r] {
				used[r] = true
				want = append(want, float64(r))
			}
		}
		sort.Float64s(want)
		p := FromRoots(want...)
		got := AllCertifiedRealRoots(p, 1e-12)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestAllRealRootsNone(t *testing.T) {
	if got := AllCertifiedRealRoots(New(2, 0, 1), 1e-12); len(got) != 0 {
		t.Errorf("x^2+2 roots = %v", got)
	}
	if got := AllCertifiedRealRoots(New(5), 1e-12); got != nil {
		t.Errorf("constant roots = %v", got)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{1, 3}
	if iv.Width() != 2 {
		t.Errorf("Width = %v", iv.Width())
	}
}

func TestRootsOfScaledPolynomialInvariant(t *testing.T) {
	// Roots are invariant under scaling the polynomial.
	p := FromRoots(1.5, -2.5)
	q := p.Scale(123.456)
	rp := AllCertifiedRealRoots(p, 1e-12)
	rq := AllCertifiedRealRoots(q, 1e-12)
	if len(rp) != len(rq) {
		t.Fatalf("root counts differ: %v vs %v", rp, rq)
	}
	for i := range rp {
		if math.Abs(rp[i]-rq[i]) > 1e-9 {
			t.Errorf("roots differ: %v vs %v", rp, rq)
		}
	}
}

func TestHighDegreeProductRoots(t *testing.T) {
	// Degree-10 polynomial from 5 quadratics |x - s_j|^2-style products
	// (the SINR boundary polynomial shape): (x^2+a_j) with a_j>0 has no
	// real roots; multiplying in (x-1)(x+1) gives exactly 2.
	p := New(-1, 0, 1) // x^2-1
	for j := 1; j <= 4; j++ {
		p = p.Mul(New(float64(j), 0, 1)) // x^2 + j
	}
	if got := NewSturmSequence(p).CountRealRoots(); got != 2 {
		t.Fatalf("count = %d, want 2 (poly %v)", got, p)
	}
	roots := AllCertifiedRealRoots(p, 1e-12)
	if len(roots) != 2 || math.Abs(roots[0]+1) > 1e-9 || math.Abs(roots[1]-1) > 1e-9 {
		t.Errorf("roots = %v, want [-1, 1]", roots)
	}
}
