package poly

import (
	"math"
	"math/rand"
	"testing"
)

func TestCertifiedRealRootsSimple(t *testing.T) {
	p := FromRoots(-2, 1, 4)
	roots := AllCertifiedRealRoots(p, 1e-12)
	want := []float64{-2, 1, 4}
	if len(roots) != 3 {
		t.Fatalf("roots = %v", roots)
	}
	for i := range want {
		if math.Abs(roots[i]-want[i]) > 1e-9 {
			t.Errorf("roots = %v, want %v", roots, want)
		}
	}
}

func TestCertifiedKeepsDoubleRoot(t *testing.T) {
	p := FromRoots(2, 2, -1)
	roots := AllCertifiedRealRoots(p, 1e-12)
	if len(roots) != 2 {
		t.Fatalf("roots = %v, want [-1, 2]", roots)
	}
	if math.Abs(roots[0]+1) > 1e-6 || math.Abs(roots[1]-2) > 1e-4 {
		t.Errorf("roots = %v", roots)
	}
}

func TestCertifiedRejectsPhantoms(t *testing.T) {
	// Build a badly conditioned high-degree polynomial of the SINR
	// boundary flavor: a product of many shifted quadratics with huge
	// dynamic range, plus two genuine roots. Certified counting must
	// report exactly the genuine roots even if raw Sturm counting
	// hallucinates extras.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		p := New(-1, 0, 1) // roots at ±1
		for j := 0; j < 7; j++ {
			cx := rng.Float64()*20 - 10
			c := 1 + rng.Float64()*30
			p = p.Mul(New(cx*cx+c, -2*cx, 1)) // (t-cx)^2 + c, no real roots
		}
		roots := AllCertifiedRealRoots(p, 1e-10)
		if len(roots) != 2 {
			t.Fatalf("trial %d: certified roots = %v, want exactly ±1", trial, roots)
		}
		if math.Abs(roots[0]+1) > 1e-6 || math.Abs(roots[1]-1) > 1e-6 {
			t.Fatalf("trial %d: roots = %v", trial, roots)
		}
	}
}

func TestCountCertifiedRootsIn(t *testing.T) {
	p := FromRoots(-3, 0, 5)
	for _, tc := range []struct {
		a, b float64
		want int
	}{{-10, 10, 3}, {1, 4, 0}, {-1, 6, 2}} {
		if got := len(CertifiedRealRoots(p, tc.a, tc.b, 1e-9)); got != tc.want {
			t.Errorf("(%v, %v]: count = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAllCertifiedRealRootsDegenerate(t *testing.T) {
	if got := AllCertifiedRealRoots(New(5), 1e-9); got != nil {
		t.Errorf("constant roots = %v", got)
	}
	if got := AllCertifiedRealRoots(nil, 1e-9); got != nil {
		t.Errorf("zero roots = %v", got)
	}
	if got := AllCertifiedRealRoots(New(1, 0, 1), 1e-9); len(got) != 0 {
		t.Errorf("x^2+1 roots = %v", got)
	}
}
