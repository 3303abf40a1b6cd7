package poly

import (
	"fmt"
	"math"
	"strings"
)

// Poly is a dense univariate polynomial. Coefficient i multiplies x^i,
// so Poly{c0, c1, c2} is c0 + c1*x + c2*x^2. The zero polynomial is
// either nil or all-zero; use Trim to normalize.
type Poly []float64

// New returns the polynomial with the given coefficients in ascending
// order of degree, trimmed of trailing (near-)zero coefficients.
func New(coeffs ...float64) Poly { return Poly(coeffs).Trim(0) }

// X returns the monomial x.
func X() Poly { return Poly{0, 1} }

// Monomial returns c * x^deg.
func Monomial(c float64, deg int) Poly {
	if deg < 0 || c == 0 {
		return nil
	}
	p := make(Poly, deg+1)
	p[deg] = c
	return p
}

// Trim removes trailing coefficients of magnitude at most tol,
// returning a polynomial whose leading coefficient is meaningful.
// A tol of 0 removes exact zeros only.
func (p Poly) Trim(tol float64) Poly {
	n := len(p)
	for n > 0 && math.Abs(p[n-1]) <= tol {
		n--
	}
	return p[:n]
}

// TrimRelative removes trailing coefficients that are negligible
// relative to the largest-magnitude coefficient: |c| <= rel * maxAbs.
// This is the normalization used before Sturm computations, where
// float64 cancellation leaves tiny garbage leading terms that would
// otherwise corrupt degree-sensitive sign arguments.
func (p Poly) TrimRelative(rel float64) Poly {
	m := p.MaxAbsCoeff()
	if m == 0 {
		return nil
	}
	return p.Trim(rel * m)
}

// MaxAbsCoeff returns the largest coefficient magnitude (0 for the
// zero polynomial).
func (p Poly) MaxAbsCoeff() float64 {
	var m float64
	for _, c := range p {
		if a := math.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// IsZero reports whether p is the zero polynomial (after exact trim).
func (p Poly) IsZero() bool { return len(p.Trim(0)) == 0 }

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p.Trim(0)) - 1 }

// Lead returns the leading coefficient (0 for the zero polynomial).
func (p Poly) Lead() float64 {
	t := p.Trim(0)
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1]
}

// Eval evaluates p at x using Horner's method.
func (p Poly) Eval(x float64) float64 {
	var v float64
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	if p == nil {
		return nil
	}
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	copy(out, p)
	for i, c := range q {
		out[i] += c
	}
	return out.Trim(0)
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	copy(out, p)
	for i, c := range q {
		out[i] -= c
	}
	return out.Trim(0)
}

// Scale returns c * p.
func (p Poly) Scale(c float64) Poly {
	if c == 0 {
		return nil
	}
	out := make(Poly, len(p))
	for i, v := range p {
		out[i] = c * v
	}
	return out
}

// Mul returns the product p * q (O(len(p)*len(q))).
func (p Poly) Mul(q Poly) Poly {
	p, q = p.Trim(0), q.Trim(0)
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			out[i+j] += a * b
		}
	}
	return out
}

// Derivative returns p'.
func (p Poly) Derivative() Poly {
	if len(p) <= 1 {
		return nil
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = float64(i) * p[i]
	}
	return out.Trim(0)
}

// DivMod returns quotient and remainder of the Euclidean division
// p = quo*q + rem with deg(rem) < deg(q). It returns ok=false when q is
// the zero polynomial.
func (p Poly) DivMod(q Poly) (quo, rem Poly, ok bool) {
	q = q.Trim(0)
	if len(q) == 0 {
		return nil, nil, false
	}
	rem = p.Clone().Trim(0)
	dq := len(q) - 1
	lead := q[dq]
	if len(rem) <= dq {
		return nil, rem, true
	}
	quo = make(Poly, len(rem)-dq)
	for len(rem) > dq {
		dr := len(rem) - 1
		c := rem[dr] / lead
		quo[dr-dq] = c
		for i := 0; i <= dq; i++ {
			rem[dr-dq+i] -= c * q[i]
		}
		// The top coefficient cancels by construction; force it to zero
		// to guarantee progress despite round-off.
		rem[dr] = 0
		rem = rem.Trim(0)
	}
	return quo.Trim(0), rem, true
}

// Shift returns the polynomial p(x + a), i.e. p composed with the
// translation x -> x + a (synthetic Taylor shift, O(deg^2)). This is
// the "shifted variable z = x - r̄" step of Section 3.2.
func (p Poly) Shift(a float64) Poly {
	out := p.Clone().Trim(0)
	n := len(out)
	if n == 0 || a == 0 {
		return out
	}
	// Repeated synthetic division by (x - (-a)) accumulates the Taylor
	// coefficients of p about -a... equivalently we use Horner-shift:
	// for Shift(a): out[j] become coefficients of p(x+a).
	for i := 0; i < n-1; i++ {
		for j := n - 2; j >= i; j-- {
			out[j] += a * out[j+1]
		}
	}
	return out.Trim(0)
}

// Normalize returns p scaled so its max-magnitude coefficient is 1.
// The zero polynomial is returned unchanged. Normalizing keeps Sturm
// remainder cascades numerically tame; it does not change roots or
// signs up to a positive factor.
func (p Poly) Normalize() Poly {
	m := p.MaxAbsCoeff()
	if m == 0 {
		return p
	}
	return p.Scale(1 / m)
}

// Equal reports whether p and q have the same coefficients within eps.
func (p Poly) Equal(q Poly, eps float64) bool {
	p, q = p.Trim(0), q.Trim(0)
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		if math.Abs(a-b) > eps {
			return false
		}
	}
	return true
}

// String renders the polynomial in human-readable ascending form.
func (p Poly) String() string {
	t := p.Trim(0)
	if len(t) == 0 {
		return "0"
	}
	var b strings.Builder
	first := true
	for i, c := range t {
		if c == 0 {
			continue
		}
		if !first {
			if c >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				c = -c
			}
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%.6g", c)
		case 1:
			fmt.Fprintf(&b, "%.6g*x", c)
		default:
			fmt.Fprintf(&b, "%.6g*x^%d", c, i)
		}
		first = false
	}
	if first {
		return "0"
	}
	return b.String()
}

// FromRoots returns the monic polynomial with the given real roots.
func FromRoots(roots ...float64) Poly {
	out := New(1)
	for _, r := range roots {
		out = out.Mul(Poly{-r, 1})
	}
	return out
}

// Quadratic returns a + b*x + c*x^2.
func Quadratic(a, b, c float64) Poly { return New(a, b, c) }

// Prod returns the product of the given polynomials (1 for none).
func Prod(ps ...Poly) Poly {
	out := New(1)
	for _, p := range ps {
		out = out.Mul(p)
	}
	return out
}
