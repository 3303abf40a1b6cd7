package poly

import (
	"math"
	"math/rand"
	"testing"
)

func TestSturmSequenceStructure(t *testing.T) {
	// p = x^2 - 1: chain is p, 2x, constant.
	seq := NewSturmSequence(New(-1, 0, 1))
	if len(seq) != 3 {
		t.Fatalf("chain length = %d, want 3", len(seq))
	}
	if seq[0].Degree() != 2 || seq[1].Degree() != 1 || seq[2].Degree() != 0 {
		t.Errorf("degrees = %d %d %d", seq[0].Degree(), seq[1].Degree(), seq[2].Degree())
	}
	if NewSturmSequence(nil) != nil {
		t.Error("zero polynomial chain should be nil")
	}
	if got := len(NewSturmSequence(New(7))); got != 1 {
		t.Errorf("constant chain length = %d, want 1", got)
	}
}

func TestCountRealRootsKnown(t *testing.T) {
	tests := []struct {
		name string
		p    Poly
		want int
	}{
		{"linear", New(-3, 1), 1},
		{"noRealRoots", New(1, 0, 1), 0},           // x^2+1
		{"twoRoots", New(-1, 0, 1), 2},             // x^2-1
		{"doubleRootCountsOnce", New(1, -2, 1), 1}, // (x-1)^2
		{"threeDistinct", FromRoots(-2, 0, 3), 3},
		{"quarticTwoReal", FromRoots(1, 2).Mul(New(1, 0, 1)), 2}, // (x-1)(x-2)(x^2+1)
		{"quarticFourReal", FromRoots(-3, -1, 2, 5), 4},
		{"tripleRoot", FromRoots(1, 1, 1), 1},
		{"constantNonzero", New(4), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := NewSturmSequence(tc.p).CountRealRoots(); got != tc.want {
				t.Fatalf("CountRealRoots = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCountRootsInInterval(t *testing.T) {
	p := FromRoots(-2, 1, 4) // roots at -2, 1, 4
	tests := []struct {
		a, b float64
		want int
	}{
		{-10, 10, 3},
		{0, 2, 1},
		{-3, 0, 1},
		{2, 3, 0},
		{1, 4, 1},   // (1, 4] contains only 4: root at 1 excluded (half-open)
		{0.9, 4, 2}, // contains 1 and 4
		{5, 2, 0},   // swapped bounds
	}
	for _, tc := range tests {
		if got := NewSturmSequence(p).CountRootsIn(tc.a, tc.b); got != tc.want {
			t.Errorf("CountRootsIn(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSturmMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		// Build a polynomial from known random roots (some complex pairs).
		nReal := rng.Intn(4)
		roots := make([]float64, nReal)
		used := map[int]bool{}
		for i := range roots {
			// Well-separated integer roots so float64 Sturm is exact enough.
			for {
				r := rng.Intn(21) - 10
				if !used[r] {
					used[r] = true
					roots[i] = float64(r)
					break
				}
			}
		}
		p := FromRoots(roots...)
		// Multiply in 0-2 irreducible quadratics.
		for k := rng.Intn(3); k > 0; k-- {
			b := rng.Float64()*2 - 1
			c := rng.Float64()*2 + 1 + b*b/4 // ensures negative discriminant
			p = p.Mul(New(c, b, 1))
		}
		if got := NewSturmSequence(p).CountRealRoots(); got != nReal {
			t.Fatalf("trial %d: roots %v, poly %v: count = %d, want %d",
				trial, roots, p, got, nReal)
		}
	}
}

func TestSignChangesAtInfinities(t *testing.T) {
	// For p = x^2 - 1: SC(-inf) = 2, SC(+inf) = 0.
	seq := NewSturmSequence(New(-1, 0, 1))
	if got := seq.SignChangesAtNegInf(); got != 2 {
		t.Errorf("SC(-inf) = %d, want 2", got)
	}
	if got := seq.SignChangesAtPosInf(); got != 0 {
		t.Errorf("SC(+inf) = %d, want 0", got)
	}
	// Sanity: for large |x| the finite evaluation matches the limit.
	if got := seq.SignChangesAt(-1e9); got != 2 {
		t.Errorf("SC(-1e9) = %d, want 2", got)
	}
	if got := seq.SignChangesAt(1e9); got != 0 {
		t.Errorf("SC(1e9) = %d, want 0", got)
	}
}

// cubicDiscriminant returns the discriminant of the cubic
// c3*x^3 + c2*x^2 + c1*x + c0,
//
//	Δ = c1²c2² − 4c0c2³ − 4c1³c3 + 18c0c1c2c3 − 27c0²c3²
//
// (the expression used in Proposition 3.4 of the paper). The cubic has
// one real root when Δ < 0 and three when Δ > 0, which makes its sign
// an oracle for Sturm root counts that shares no code with them.
func cubicDiscriminant(c0, c1, c2, c3 float64) float64 {
	return c1*c1*c2*c2 - 4*c0*c2*c2*c2 - 4*c1*c1*c1*c3 + 18*c0*c1*c2*c3 - 27*c0*c0*c3*c3
}

func TestCubicDiscriminant(t *testing.T) {
	// x^3 - 3x has roots 0, ±sqrt(3): three real roots, Δ > 0.
	if d := cubicDiscriminant(0, -3, 0, 1); d <= 0 {
		t.Errorf("discriminant = %v, want > 0", d)
	}
	if n := NewSturmSequence(New(0, -3, 0, 1)).CountRealRoots(); n != 3 {
		t.Errorf("x^3-3x: %d real roots, want 3", n)
	}
	// x^3 + x has one real root: Δ < 0.
	if d := cubicDiscriminant(0, 1, 0, 1); d >= 0 {
		t.Errorf("discriminant = %v, want < 0", d)
	}
	if n := NewSturmSequence(New(0, 1, 0, 1)).CountRealRoots(); n != 1 {
		t.Errorf("x^3+x: %d real roots, want 1", n)
	}
	// x^3 (triple root): Δ = 0.
	if d := cubicDiscriminant(0, 0, 0, 1); d != 0 {
		t.Errorf("discriminant = %v, want 0", d)
	}
	if n := NewSturmSequence(New(0, 0, 0, 1)).CountRealRoots(); n != 1 {
		t.Errorf("x^3: %d distinct real roots, want 1", n)
	}
}

func TestCubicDiscriminantMatchesSturm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		c0 := rng.Float64()*4 - 2
		c1 := rng.Float64()*4 - 2
		c2 := rng.Float64()*4 - 2
		c3 := rng.Float64()*2 + 0.5
		disc := cubicDiscriminant(c0, c1, c2, c3)
		if math.Abs(disc) < 1e-6 {
			continue // too close to a multiple root for float64 certainty
		}
		n := NewSturmSequence(New(c0, c1, c2, c3)).CountRealRoots()
		if disc < 0 && n != 1 {
			t.Fatalf("trial %d: Δ=%v<0 but %d real roots (poly %v)", trial, disc, n, New(c0, c1, c2, c3))
		}
		if disc > 0 && n != 3 {
			t.Fatalf("trial %d: Δ=%v>0 but %d real roots (poly %v)", trial, disc, n, New(c0, c1, c2, c3))
		}
	}
}
