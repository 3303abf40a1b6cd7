package poly

import "math"

// RootBound returns a radius R such that all real roots of p lie in
// [-R, R] (Cauchy's bound: 1 + max_i |c_i / c_lead|). It returns 0 for
// constant or zero polynomials.
func RootBound(p Poly) float64 {
	t := p.TrimRelative(sturmTrimRel)
	if len(t) <= 1 {
		return 0
	}
	lead := math.Abs(t[len(t)-1])
	var m float64
	for _, c := range t[:len(t)-1] {
		if a := math.Abs(c) / lead; a > m {
			m = a
		}
	}
	return 1 + m
}

// Interval is a closed real interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// IsolateRoots returns disjoint intervals, each containing exactly one
// distinct real root of p, covering all distinct real roots in (a, b].
// Isolation proceeds by Sturm-count bisection down to intervals with a
// single root.
func IsolateRoots(p Poly, a, b float64) []Interval {
	seq := NewSturmSequence(p)
	if len(seq) == 0 {
		return nil
	}
	return isolate(seq, a, b, seq.CountRootsIn(a, b), 0)
}

// maxIsolationDepth caps bisection recursion; beyond this depth the
// interval is returned as-is (possibly holding a root cluster that
// float64 cannot separate).
const maxIsolationDepth = 200

func isolate(seq SturmSequence, a, b float64, count, depth int) []Interval {
	switch {
	case count <= 0:
		return nil
	case count == 1 || depth >= maxIsolationDepth || b-a <= 1e-300:
		return []Interval{{a, b}}
	}
	mid := (a + b) / 2
	left := seq.CountRootsIn(a, mid)
	out := isolate(seq, a, mid, left, depth+1)
	return append(out, isolate(seq, mid, b, count-left, depth+1)...)
}

// RefineRoot shrinks an isolating interval around a single root of p
// down to width tol, then polishes the estimate with a few Newton
// steps guarded to stay in the interval.
//
// When the interval endpoints straddle a sign change, plain sign
// bisection on direct Horner evaluations is used: it is robust against
// the coefficient-cascade noise that can creep into deep Sturm chains
// of high-degree polynomials (where count-driven bisection may settle
// measurably away from the actual root). Sturm-count bisection is kept
// for the even-multiplicity case, where p does not change sign.
func RefineRoot(p Poly, iv Interval, tol float64) float64 {
	lo, hi := iv.Lo, iv.Hi
	vlo, vhi := p.Eval(lo), p.Eval(hi)
	if (vlo < 0 && vhi > 0) || (vlo > 0 && vhi < 0) {
		for hi-lo > tol {
			mid := (lo + hi) / 2
			if mid <= lo || mid >= hi {
				break // float64 exhausted
			}
			vm := p.Eval(mid)
			if vm == 0 {
				return mid
			}
			if (vm < 0) == (vlo < 0) {
				lo, vlo = mid, vm
			} else {
				hi = mid
			}
		}
		return newtonPolish(p, (lo+hi)/2, iv)
	}
	seq := NewSturmSequence(p)
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break // float64 exhausted
		}
		if seq.CountRootsIn(lo, mid) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return newtonPolish(p, (lo+hi)/2, iv)
}

// newtonPolish runs a few guarded Newton steps from x, staying inside
// the isolating interval.
func newtonPolish(p Poly, x float64, iv Interval) float64 {
	d := p.Derivative()
	for i := 0; i < 8; i++ {
		fv, dv := p.Eval(x), d.Eval(x)
		if dv == 0 {
			break
		}
		nx := x - fv/dv
		if nx < iv.Lo || nx > iv.Hi || math.IsNaN(nx) {
			break
		}
		if nx == x {
			break
		}
		x = nx
	}
	return x
}
