package dynamic

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/shardindex"
)

// params are the network constants a cover box depends on.
type params struct {
	noise, beta, alpha float64
}

// dominance reports whether boxes are cut by dominance discs: only for
// beta > 1 does reception at p imply E_i >= beta*E_j for every other
// station j, and only a noisy network has the bounded noise boxes the
// grid is framed by. Below alpha = 1 the error budget of dominanceBox
// grows as 1/alpha past its margin, so such networks keep noise boxes.
func (m params) dominance() bool {
	return m.beta > 1 && m.noise > 0 && m.alpha >= 1
}

// coverSlack is the relative margin coverBox adds to the half-side of
// a cover box; see coverBox for the error budget it covers.
const coverSlack = 1e-9

// coverBox bounds station's reception zone by the necessary condition
// E >= beta*N: the zone lies in the square of half-side
// rho = (psi/(beta*N))^(1/alpha) around the station, whatever the
// other stations do. This noise box frames the snapshot's grid, and
// for beta <= 1 it is the cover box itself. A noiseless network has
// unbounded interference-free range; its non-finite box disables the
// grid (BuildFramed returns nil) and the snapshot answers without it.
//
// The box must hold every point the float predicate of Network.Heard
// (and HeardBy's scan) accepts, not only the real zone, so the
// half-side carries a relative margin of coverSlack. With u = 2^-53
// the unit roundoff, and every quantity in the normal float range:
//
//   - Heard means fl(e/fl(I+N)) >= beta with interference I >= 0 (0
//     with one station). fl(I+N) >= N because rounding is monotone,
//     and rounded division is monotone in its divisor, so
//     fl(e/N) >= beta, hence e >= beta*N/(1+u).
//   - e = fl(psi*w) with w = d2^(-alpha/2) up to a relative error
//     eps_p (alpha = 2 computes psi/d2 directly: eps_p = 0), and
//     d2 = fl(fl(dx^2)+fl(dy^2)) >= fl(dx^2) >= dx^2*(1-u) with
//     dx = fl(p.X-s.X) = (p.X-s.X)(1+d), |d| <= u. Together:
//     |p.X-s.X| <= rho*((1+eps_p)(1+u)^2)^(1/alpha)/(1-u)^(3/2), and
//     the same for y.
//   - The computed half-side r is rho up to the rounding of
//     beta*N, of psi/(beta*N) and of 1/alpha (exact for alpha = 2),
//     plus the error of math.Pow itself (math.Pow(x, 0.5) is
//     math.Sqrt, correctly rounded).
//   - For alpha != 2 this assumes math.Pow's relative error is at most
//     1e-12. Go's Pow is exp(yf*log x) times a product by repeated
//     squaring; its error grows with |y*ln x| <= ~2^11 over the
//     double range, a few hundred ulps at most, about 3e-13. That is
//     an assumption about the library, not a proof.
//
// Every term above is below 1e-11 of rho, so R = r*(1+coverSlack)
// bounds |p.X-s.X| with three orders of magnitude to spare. The edge
// addition needs no margin of its own: p.X <= s.X+R in real terms
// and p.X is a float, so monotone rounding gives p.X <= fl(s.X+R),
// and likewise fl(s.X-R) <= p.X. The grid places points and box edges
// with one monotone cell formula, so a point inside a box lands in a
// cell that lists it.
func coverBox(p geom.Point, power float64, m params) shardindex.Box {
	if m.noise <= 0 {
		inf := math.Inf(1)
		return shardindex.Box{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
	}
	r := math.Pow(power/(m.beta*m.noise), 1/m.alpha) * (1 + coverSlack)
	return shardindex.Box{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
}

// noDeps marks a box every side of which its noise box bounds.
var noDeps = [4]int32{-1, -1, -1, -1}

// maxDiscRatio caps the squared distance ratio L of the discs
// dominanceBox uses. The disc's radius grows as 1/(1-L), and so does
// its error budget; at the cap a disc's radius is some 2^10 times the
// two stations' distance, no tighter than the noise box in practice.
const maxDiscRatio = 1 - 0x1p-10

// discSlack is the relative margin dominanceBox adds to a disc's
// radius; see dominanceBox for the error budget it covers.
const discSlack = 1e-6

// dominanceBox returns the bounding box of station a's (power pa)
// beta-dominance disc against station s (power ps): the points where
// E_a >= beta*E_s. It is a disc, not a half-plane, exactly when the
// squared distance ratio L = (pa/(beta*ps))^(2/alpha) is below 1: then
// |p-a|^2 <= L*|p-s|^2 is the disc of centre a + L(a-s)/(1-L) and
// radius sqrt(L)|a-s|/(1-L), which contains a. For beta > 1 every
// point where a is heard satisfies E_a >= beta*E_s, so the zone of a
// lies in the disc of every station s. ok is false when s bounds
// nothing: L above maxDiscRatio, or a distance outside the normal
// float range.
//
// As with coverBox the box must hold every float point Network.Heard
// accepts. With u = 2^-53, alpha >= 1 and every quantity in the normal
// float range:
//
//   - Heard means fl(e_a/fl(I+N)) >= beta, and the float sum I holds
//     the term e_s, so fl(I+N) >= e_s by monotone rounding of
//     non-negative sums. Division is monotone in its divisor, so
//     e_a >= beta*e_s/(1+u).
//   - Each energy is psi*D^(-alpha/2)*(1+eta) in the real squared
//     distance D. For alpha = 2 (psi/d2, d2 within (1+-u)^4 of D),
//     |eta| <= 5.01u. Otherwise (psi*math.Pow(d2, -alpha/2)),
//     |eta| <= 2*alpha*u + eps_p + u to first order, with eps_p the
//     1e-12 bound on math.Pow assumed at coverBox.
//   - So the real point p has |p-a|^2 <= L*|p-s|^2 with
//     L* = (pa/(beta*ps))^(2/alpha)*((1+eta)(1+u)/(1-eta))^(2/alpha),
//     within (1+-8u+(4eps_p+6u)/alpha) of the exact ratio. The computed
//     ratio is within 2u (alpha = 2) or (4/alpha+745)u+eps_p (the
//     argument's rounding raised to 2/alpha, that of fl(2/alpha) times
//     |ln L| <= 745, and Pow) of it. For alpha >= 1 the two differ by a
//     relative K <= 6e-12.
//   - The centre offset t = L/(1-L) and the radius factor
//     rho = sqrt(L)/(1-L) amplify a relative error K in L by at most
//     1/(1-L) <= 2^10: both move by under 7e-9. Their rounding, that of
//     a-s, of d2 and its square root, and of the products adds under
//     10u. Since t < rho and |a.X-s.X| <= |a-s|, the real offset of
//     the disc's side from a.X, t*(a.X-s.X) +- rho*|a-s|, lies within
//     the computed c +- R(1+1.5e-8), with R the computed radius.
//   - R*(1+discSlack) covers the 1.5e-8 with a factor of 60 to spare,
//     and the roundings of that product and of c +- R' (|c| < R, so
//     each under 2u*R). As in coverBox the final addition a.X + h
//     needs no margin: p.X <= a.X+h in reals and p.X is a float.
//
// Co-located stations (a == s) give the degenerate box {a}: the
// energies share d2, so E_a >= beta*E_s/(1+u) needs
// pa/(beta*ps) >= 1-3u, which L <= maxDiscRatio excludes, and at a
// itself the co-located interferer's +Inf energy denies reception.
func dominanceBox(a geom.Point, pa float64, s geom.Point, ps float64, m params) (shardindex.Box, bool) {
	l := pa / (m.beta * ps)
	if m.alpha != 2 {
		l = math.Pow(l, 2/m.alpha)
	}
	if !(l <= maxDiscRatio) {
		return shardindex.Box{}, false
	}
	dx, dy := a.X-s.X, a.Y-s.Y
	if dx == 0 && dy == 0 {
		return shardindex.Box{MinX: a.X, MinY: a.Y, MaxX: a.X, MaxY: a.Y}, true
	}
	d2 := dx*dx + dy*dy
	if !(d2 >= 0x1p-1022 && d2 <= math.MaxFloat64) {
		return shardindex.Box{}, false
	}
	w := 1 - l
	t := l / w
	r := math.Sqrt(l) / w * math.Sqrt(d2) * (1 + discSlack)
	cx, cy := t*dx, t*dy
	return shardindex.Box{MinX: a.X + (cx - r), MinY: a.Y + (cy - r), MaxX: a.X + (cx + r), MaxY: a.Y + (cy + r)}, true
}

// dominatorReach is the radius, as a fraction of a station's noise
// box half-side, within which derive looks for dominators. Nearer
// stations bound the sides: on the E18 geometry (noise 0.01, beta = 3)
// a reach of 3/4 leaves the mean box half-side within 4% of a search
// over the whole noise box at uniform power (64 to 10^4 stations) and
// within 11% under log-normal powers (512 stations, sigma = 0.5).
const dominatorReach = 0.75

// derive sets slot id's cover box: its noise box nb, cut for
// beta > 1 by the dominance disc of every station within
// dominatorReach of it that near lists, skipping the slot's own
// station and the identities in weak (stations that depart or lose
// power in the delta being applied, whose discs no longer bound
// anything). Any subset of stations gives a valid box; the reach only
// keeps the work O(1) a station. deps records, per side, the identity
// of the station that bounds it, and each such identity is marked as a
// binder.
func (t *slots) derive(id int32, nb shardindex.Box, near *shardindex.Index, weak []int32, m params) {
	b, deps := nb, noDeps
	if near != nil && m.dominance() {
		a, pa, self := t.pts[id], t.powers[id], t.ident[id]
		h := dominatorReach * (nb.MaxX - nb.MinX) / 2
		reach := shardindex.Box{MinX: a.X - h, MinY: a.Y - h, MaxX: a.X + h, MaxY: a.Y + h}
		for c := range near.Near(reach) {
			s := t.pts[c]
			if dx, dy := s.X-a.X, s.Y-a.Y; dx*dx+dy*dy > h*h {
				continue
			}
			j := t.ident[c]
			if j == self || slices.Contains(weak, j) {
				continue
			}
			db, ok := dominanceBox(a, pa, s, t.powers[c], m)
			if !ok {
				continue
			}
			// Plain comparisons: a NaN edge never tightens a side.
			if db.MinX > b.MinX {
				b.MinX, deps[0] = db.MinX, j
			}
			if db.MinY > b.MinY {
				b.MinY, deps[1] = db.MinY, j
			}
			if db.MaxX < b.MaxX {
				b.MaxX, deps[2] = db.MaxX, j
			}
			if db.MaxY < b.MaxY {
				b.MaxY, deps[3] = db.MaxY, j
			}
		}
		for _, j := range deps {
			if j >= 0 {
				t.binder[j] = true
			}
		}
	}
	t.boxes[id], t.deps[id] = b, deps
}
