package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func polyAlmostEqual(t *testing.T, got, want Poly, eps float64) {
	t.Helper()
	if !got.Equal(want, eps) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestNewTrimsZeros(t *testing.T) {
	p := New(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", p.Degree())
	}
	if New(0, 0).Degree() != -1 {
		t.Fatal("all-zero polynomial should have degree -1")
	}
}

func TestDegreeLeadIsZero(t *testing.T) {
	tests := []struct {
		name   string
		p      Poly
		degree int
		lead   float64
		zero   bool
	}{
		{"nil", nil, -1, 0, true},
		{"constant", New(5), 0, 5, false},
		{"linear", New(1, 2), 1, 2, false},
		{"cubicWithZeros", Poly{1, 0, 0, 4}, 3, 4, false},
		{"trailingZeros", Poly{1, 2, 0}, 1, 2, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Degree(); got != tc.degree {
				t.Errorf("Degree = %d, want %d", got, tc.degree)
			}
			if got := tc.p.Lead(); got != tc.lead {
				t.Errorf("Lead = %v, want %v", got, tc.lead)
			}
			if got := tc.p.IsZero(); got != tc.zero {
				t.Errorf("IsZero = %v, want %v", got, tc.zero)
			}
		})
	}
}

func TestEvalHorner(t *testing.T) {
	p := New(1, -2, 3) // 1 - 2x + 3x^2
	tests := []struct {
		x, want float64
	}{
		{0, 1},
		{1, 2},
		{2, 9},
		{-1, 6},
		{0.5, 0.75},
	}
	for _, tc := range tests {
		if got := p.Eval(tc.x); got != tc.want {
			t.Errorf("Eval(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := (Poly)(nil).Eval(3); got != 0 {
		t.Errorf("zero poly Eval = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	p := New(1, 2, 3)
	q := New(4, -2)
	polyAlmostEqual(t, p.Add(q), New(5, 0, 3), 0)
	polyAlmostEqual(t, p.Sub(q), New(-3, 4, 3), 0)
	polyAlmostEqual(t, p.Scale(2), New(2, 4, 6), 0)
	if p.Scale(0) != nil {
		t.Error("Scale(0) should be zero polynomial")
	}
	// Cancellation trims degree.
	polyAlmostEqual(t, New(1, 1).Sub(New(0, 1)), New(1), 0)
}

func TestMul(t *testing.T) {
	// (1+x)(1-x) = 1 - x^2
	polyAlmostEqual(t, New(1, 1).Mul(New(1, -1)), New(1, 0, -1), 0)
	// (x-1)(x-2) = 2 - 3x + x^2
	polyAlmostEqual(t, FromRoots(1, 2), New(2, -3, 1), 0)
	if got := New(1, 2).Mul(nil); got != nil {
		t.Errorf("p*0 = %v", got)
	}
}

func TestMulEvalHomomorphismProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := randomPoly(rng, 5)
		q := randomPoly(rng, 4)
		x := rng.Float64()*4 - 2
		got := p.Mul(q).Eval(x)
		want := p.Eval(x) * q.Eval(x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: (p*q)(%v) = %v, p(x)*q(x) = %v", trial, x, got, want)
		}
	}
}

func randomPoly(rng *rand.Rand, maxDeg int) Poly {
	deg := rng.Intn(maxDeg + 1)
	p := make(Poly, deg+1)
	for i := range p {
		p[i] = rng.Float64()*4 - 2
	}
	p[deg] = rng.Float64() + 0.5 // nonzero lead
	return p
}

func TestDerivative(t *testing.T) {
	polyAlmostEqual(t, New(5, 3, 2, 1).Derivative(), New(3, 4, 3), 0)
	if got := New(7).Derivative(); got != nil {
		t.Errorf("constant derivative = %v", got)
	}
	if got := (Poly)(nil).Derivative(); got != nil {
		t.Errorf("zero derivative = %v", got)
	}
}

func TestDivMod(t *testing.T) {
	// x^2 - 1 = (x+1)(x-1) + 0
	quo, rem, ok := New(-1, 0, 1).DivMod(New(1, 1))
	if !ok {
		t.Fatal("expected ok")
	}
	polyAlmostEqual(t, quo, New(-1, 1), 1e-12)
	if !rem.IsZero() {
		t.Errorf("rem = %v, want 0", rem)
	}

	// x^3 + 2 divided by x^2: quo = x, rem = 2.
	quo, rem, ok = New(2, 0, 0, 1).DivMod(New(0, 0, 1))
	if !ok {
		t.Fatal("expected ok")
	}
	polyAlmostEqual(t, quo, New(0, 1), 1e-12)
	polyAlmostEqual(t, rem, New(2), 1e-12)

	// Division by zero polynomial.
	if _, _, ok := New(1, 2).DivMod(nil); ok {
		t.Error("division by zero polynomial must fail")
	}

	// deg(p) < deg(q): quo = 0, rem = p.
	quo, rem, ok = New(1, 2).DivMod(New(0, 0, 3))
	if !ok || len(quo) != 0 {
		t.Errorf("quo = %v, ok = %v", quo, ok)
	}
	polyAlmostEqual(t, rem, New(1, 2), 0)
}

func TestDivModReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		p := randomPoly(rng, 8)
		q := randomPoly(rng, 4)
		quo, rem, ok := p.DivMod(q)
		if !ok {
			t.Fatal("expected ok")
		}
		if rem.Degree() >= q.Degree() {
			t.Fatalf("trial %d: deg(rem)=%d >= deg(q)=%d", trial, rem.Degree(), q.Degree())
		}
		recon := quo.Mul(q).Add(rem)
		if !recon.Equal(p, 1e-9*(1+p.MaxAbsCoeff())) {
			t.Fatalf("trial %d: quo*q+rem = %v, want %v", trial, recon, p)
		}
	}
}

func TestShift(t *testing.T) {
	// (x+1)^2 = x^2 shifted by a=1.
	polyAlmostEqual(t, New(0, 0, 1).Shift(1), New(1, 2, 1), 1e-12)
	// p(x) = x: p(x+3) = x+3.
	polyAlmostEqual(t, X().Shift(3), New(3, 1), 1e-12)
	// Shift by 0 is identity.
	p := New(1, 2, 3, 4)
	polyAlmostEqual(t, p.Shift(0), p, 0)
}

func TestShiftEvalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		p := randomPoly(rng, 6)
		a := rng.Float64()*4 - 2
		x := rng.Float64()*4 - 2
		got := p.Shift(a).Eval(x)
		want := p.Eval(x + a)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: shift mismatch %v vs %v", trial, got, want)
		}
	}
}

func TestMonomialAndProd(t *testing.T) {
	polyAlmostEqual(t, Monomial(3, 2), New(0, 0, 3), 0)
	if Monomial(3, -1) != nil {
		t.Error("negative degree must be zero polynomial")
	}
	if Monomial(0, 2) != nil {
		t.Error("zero coefficient must be zero polynomial")
	}
	polyAlmostEqual(t, Prod(New(1, 1), New(1, -1), New(2)), New(2, 0, -2), 0)
	polyAlmostEqual(t, Prod(), New(1), 0)
}

func TestNormalize(t *testing.T) {
	p := New(2, -8, 4)
	n := p.Normalize()
	if got := n.MaxAbsCoeff(); !almostEq(got, 1, 1e-15) {
		t.Errorf("max coeff = %v, want 1", got)
	}
	// Roots unchanged: evaluate proportionality.
	if math.Abs(n.Eval(2)*8-p.Eval(2)) > 1e-12 {
		t.Error("Normalize changed the polynomial beyond scaling")
	}
}

func TestTrimRelative(t *testing.T) {
	p := Poly{1, 1, 1e-16}
	if got := p.TrimRelative(1e-12).Degree(); got != 1 {
		t.Errorf("degree = %d, want 1", got)
	}
	if got := (Poly{0, 0}).TrimRelative(1e-12); got != nil {
		t.Errorf("zero trim = %v", got)
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		p    Poly
		want string
	}{
		{nil, "0"},
		{New(0), "0"},
		{New(1), "1"},
		{New(-1, 2), "-1 + 2*x"},
		{New(0, 0, 3), "3*x^2"},
		{New(1, 0, -2), "1 - 2*x^2"},
	}
	for _, tc := range tests {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", []float64(tc.p), got, tc.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(1, 2, 3)
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases original")
	}
	if (Poly)(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p, q := New(a, b), New(c, d)
		return p.Add(q).Equal(q.Add(p), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
