package poly

import "math"

// certifyRelTol is the relative residual threshold below which a
// refined candidate root is accepted even without a sign change
// (covering even-multiplicity roots). The comparison scale is the
// polynomial's magnitude at the original isolating interval's
// endpoints, which sit a macroscopic distance from the candidate.
const certifyRelTol = 1e-6

// CertifiedRealRoots returns the distinct real roots of p in (a, b]
// that survive a posteriori certification. Sturm sequences over
// float64 can report phantom sign changes in regions where the
// coefficient cascade cancels badly (typically far from the
// interesting scale of the polynomial); certification rejects those:
//
//   - an isolating interval whose endpoints straddle a sign change of
//     p is certified outright (a real root of odd multiplicity is
//     guaranteed by continuity), and
//   - otherwise the interval is kept only when the refined candidate
//     x* satisfies |p(x*)| <= certifyRelTol * max(|p(a0)|, |p(b0)|)
//     with a0, b0 the original isolating endpoints — true
//     even-multiplicity roots pass easily, phantom roots (where p is
//     locally enormous) fail.
//
// Roots are refined to absolute tolerance tol and returned ascending.
func CertifiedRealRoots(p Poly, a, b, tol float64) []float64 {
	ivs := IsolateRoots(p, a, b)
	if len(ivs) == 0 {
		return nil
	}
	roots := make([]float64, 0, len(ivs))
	for _, iv := range ivs {
		x, ok := certify(p, iv, tol)
		if ok {
			roots = append(roots, x)
		}
	}
	return roots
}

// certify refines and validates a single isolating interval. Roots of
// odd multiplicity certify by the endpoint sign change; otherwise the
// candidate must be a local near-zero: |p(x*)| small relative to p's
// magnitude a short step h away. A phantom (where p is locally
// enormous and flat in relative terms) fails the ratio; a genuine
// even-multiplicity root p ~ c (x - x*)^2 passes because p(x* ± h)
// grows quadratically off the root while p(x*) sits at rounding level.
func certify(p Poly, iv Interval, tol float64) (float64, bool) {
	va, vb := p.Eval(iv.Lo), p.Eval(iv.Hi)
	if (va < 0 && vb > 0) || (va > 0 && vb < 0) || va == 0 || vb == 0 {
		return RefineRoot(p, iv, tol), true
	}
	x := RefineRoot(p, iv, tol)
	res := math.Abs(p.Eval(x))
	h := 1e-3 * (1 + math.Abs(x))
	scale := math.Max(math.Abs(p.Eval(x+h)), math.Abs(p.Eval(x-h)))
	if scale == 0 {
		return x, true
	}
	return x, res <= certifyRelTol*scale
}

// AllCertifiedRealRoots returns every certified distinct real root of
// p (using Cauchy's bound for the window), sorted ascending.
func AllCertifiedRealRoots(p Poly, tol float64) []float64 {
	r := RootBound(p)
	if r == 0 {
		return nil
	}
	return CertifiedRealRoots(p, -r-1, r, tol)
}
