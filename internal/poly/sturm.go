package poly

// sturmTrimRel is the relative coefficient threshold used to discard
// numerically-dead leading terms while building Sturm sequences.
const sturmTrimRel = 1e-12

// SturmSequence is the canonical Sturm chain of a polynomial:
// P0 = P, P1 = P', P_i = -rem(P_{i-2} / P_{i-1}), terminating when the
// next remainder vanishes (Section 3.2 of the paper, citing Sturm 1829).
type SturmSequence []Poly

// NewSturmSequence builds the Sturm chain of p. Each element is
// normalized to unit max-coefficient (a positive scaling, which
// preserves all sign information Sturm's theorem consumes) to keep the
// remainder cascade stable in float64.
func NewSturmSequence(p Poly) SturmSequence {
	p = p.TrimRelative(sturmTrimRel)
	if len(p) == 0 {
		return nil
	}
	seq := SturmSequence{p.Normalize()}
	d := p.Derivative().TrimRelative(sturmTrimRel)
	if len(d) == 0 {
		return seq
	}
	seq = append(seq, d.Normalize())
	for {
		prev, cur := seq[len(seq)-2], seq[len(seq)-1]
		_, rem, ok := prev.DivMod(cur)
		if !ok {
			break
		}
		rem = rem.TrimRelative(sturmTrimRel)
		if len(rem) == 0 {
			break
		}
		seq = append(seq, rem.Scale(-1).Normalize())
		if seq[len(seq)-1].Degree() == 0 {
			break
		}
	}
	return seq
}

// signOf classifies v with a tolerance band around zero.
func signOf(v, tol float64) int {
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// SignChangesAt returns SC_P(x): the number of sign changes in the
// sequence P0(x), P1(x), ..., Pm(x), ignoring zeros as Sturm's theorem
// prescribes.
func (s SturmSequence) SignChangesAt(x float64) int {
	changes, last := 0, 0
	for _, p := range s {
		v := p.Eval(x)
		sg := signOf(v, 0)
		if sg == 0 {
			continue
		}
		if last != 0 && sg != last {
			changes++
		}
		last = sg
	}
	return changes
}

// SignChangesAtNegInf returns lim_{x -> -inf} SC_P(x), determined by
// the leading coefficients and parities of the chain members.
func (s SturmSequence) SignChangesAtNegInf() int {
	changes, last := 0, 0
	for _, p := range s {
		t := p.Trim(0)
		if len(t) == 0 {
			continue
		}
		sg := signOf(t.Lead(), 0)
		if (len(t)-1)%2 == 1 {
			sg = -sg
		}
		if sg == 0 {
			continue
		}
		if last != 0 && sg != last {
			changes++
		}
		last = sg
	}
	return changes
}

// SignChangesAtPosInf returns lim_{x -> +inf} SC_P(x).
func (s SturmSequence) SignChangesAtPosInf() int {
	changes, last := 0, 0
	for _, p := range s {
		sg := signOf(p.Lead(), 0)
		if sg == 0 {
			continue
		}
		if last != 0 && sg != last {
			changes++
		}
		last = sg
	}
	return changes
}

// CountRealRoots returns the number of distinct real roots of the
// polynomial underlying the chain (Sturm's theorem over (-inf, +inf)).
func (s SturmSequence) CountRealRoots() int {
	if len(s) == 0 {
		return 0
	}
	n := s.SignChangesAtNegInf() - s.SignChangesAtPosInf()
	if n < 0 {
		return 0
	}
	return n
}

// CountRootsIn returns the number of distinct real roots in the
// half-open interval (a, b], per Sturm's condition (Theorem 3.6 of the
// paper). It requires a < b; swapped bounds return 0.
func (s SturmSequence) CountRootsIn(a, b float64) int {
	if len(s) == 0 || a >= b {
		return 0
	}
	n := s.SignChangesAt(a) - s.SignChangesAt(b)
	if n < 0 {
		return 0
	}
	return n
}
