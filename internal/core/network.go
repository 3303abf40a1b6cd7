package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// DefaultAlpha is the "textbook" path-loss exponent; the paper's
// theorems are proved for alpha = 2.
const DefaultAlpha = 2

// Common validation errors.
var (
	ErrTooFewStations = errors.New("core: a network needs at least one station")
	ErrBadPower       = errors.New("core: transmission powers must be positive")
	ErrBadNoise       = errors.New("core: background noise must be non-negative")
	ErrBadBeta        = errors.New("core: reception threshold beta must be positive")
	ErrBadAlpha       = errors.New("core: path-loss alpha must be positive")
	ErrNeedAlpha2     = errors.New("core: this operation requires path-loss alpha = 2")
	ErrNeedUniform    = errors.New("core: this operation requires a uniform power network")
	ErrNeedBetaGT1    = errors.New("core: this operation requires reception threshold beta > 1")
	ErrSharedLocation = errors.New("core: station location shared by another station")
)

// Network is a wireless network A = <S, psi, N, beta> (Section 2.2 of
// the paper): stations embedded in the plane, per-station transmission
// powers, background noise N >= 0 and reception threshold beta. The
// path-loss exponent alpha is carried alongside; the paper's theorems
// require alpha = 2 and constructors default to it.
//
// A Network is immutable after construction; derived structures
// (zones, grids, locators) hold references to it safely across
// goroutines.
type Network struct {
	stations []geom.Point
	powers   []float64
	noise    float64
	beta     float64
	alpha    float64
	uniform  bool
}

// Option customizes network construction.
type Option func(*Network) error

// WithAlpha sets the path-loss exponent (default 2). Values other than
// 2 support SINR evaluation and diagrams but not the polynomial-based
// algorithms (segment test, Theorem 3).
func WithAlpha(alpha float64) Option {
	return func(n *Network) error {
		if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return ErrBadAlpha
		}
		n.alpha = alpha
		return nil
	}
}

// WithPowers sets per-station transmission powers, overriding the
// uniform default. len(powers) must equal the station count.
func WithPowers(powers []float64) Option {
	return func(n *Network) error {
		if len(powers) != len(n.stations) {
			return fmt.Errorf("core: %d powers for %d stations", len(powers), len(n.stations))
		}
		for _, p := range powers {
			if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return ErrBadPower
			}
		}
		n.powers = append([]float64(nil), powers...)
		n.uniform = true
		for _, p := range powers {
			if p != powers[0] {
				n.uniform = false
				break
			}
		}
		return nil
	}
}

// NewNetwork builds a network with the given station locations,
// background noise and reception threshold. Powers default to the
// uniform assignment psi = 1 and alpha to 2; override with options.
func NewNetwork(stations []geom.Point, noise, beta float64, opts ...Option) (*Network, error) {
	if len(stations) < 1 {
		return nil, ErrTooFewStations
	}
	if noise < 0 || math.IsNaN(noise) || math.IsInf(noise, 0) {
		return nil, ErrBadNoise
	}
	if beta <= 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, ErrBadBeta
	}
	n := &Network{
		stations: append([]geom.Point(nil), stations...),
		noise:    noise,
		beta:     beta,
		alpha:    DefaultAlpha,
		uniform:  true,
	}
	for _, opt := range opts {
		if err := opt(n); err != nil {
			return nil, err
		}
	}
	if n.powers == nil {
		n.powers = make([]float64, len(stations))
		for i := range n.powers {
			n.powers[i] = 1
		}
	}
	return n, nil
}

// NewUniform builds a uniform power network <S, 1, N, beta> with
// alpha = 2, the setting of all three theorems.
func NewUniform(stations []geom.Point, noise, beta float64) (*Network, error) {
	return NewNetwork(stations, noise, beta)
}

// NumStations returns |S|.
func (n *Network) NumStations() int { return len(n.stations) }

// Station returns the location of station i.
func (n *Network) Station(i int) geom.Point { return n.stations[i] }

// Stations returns a copy of all station locations.
func (n *Network) Stations() []geom.Point {
	return append([]geom.Point(nil), n.stations...)
}

// Power returns the transmission power psi_i.
func (n *Network) Power(i int) float64 { return n.powers[i] }

// Noise returns the background noise N.
func (n *Network) Noise() float64 { return n.noise }

// Beta returns the reception threshold beta.
func (n *Network) Beta() float64 { return n.beta }

// Alpha returns the path-loss exponent.
func (n *Network) Alpha() float64 { return n.alpha }

// IsUniform reports whether all stations share the same power.
func (n *Network) IsUniform() bool { return n.uniform }

// IsTrivial reports whether the network is trivial in the paper's
// sense (Section 2.2): exactly two uniform stations, no noise, and
// beta = 1 — the one case where reception zones are unbounded
// half-planes.
func (n *Network) IsTrivial() bool {
	return len(n.stations) == 2 && n.uniform && n.noise == 0 && n.beta == 1
}

// SharesLocation reports whether station i's location coincides with
// another station's (within geom.Eps). In that case the zone
// degenerates: the co-located interferer drives SINR(s_i, .) to 0 at
// s_i itself, so no point of the plane is heard from station i.
func (n *Network) SharesLocation(i int) bool {
	for j, s := range n.stations {
		if j != i && geom.ApproxEqual(s, n.stations[i], geom.Eps) {
			return true
		}
	}
	return false
}

// Energy returns E(s_i, p) = psi_i * dist(s_i, p)^(-alpha)
// (Section 2.2). It returns +Inf when p coincides with s_i.
func (n *Network) Energy(i int, p geom.Point) float64 {
	d2 := geom.Dist2(n.stations[i], p)
	if d2 == 0 {
		return math.Inf(1)
	}
	if n.alpha == 2 {
		return n.powers[i] / d2
	}
	return n.powers[i] * math.Pow(d2, -n.alpha/2)
}

// The alpha = 2 kernel. Energy does not inline (its math.Pow branch is
// over the compiler's budget), so a sum of Energy calls pays a call and
// the d2 == 0 and alpha tests per term. For alpha = 2 the sums below
// evaluate each term as psi_j / geom.Dist2(s_j, p) instead: the very
// operations Energy performs, in the same index order into one
// accumulator, so every sum is bit for bit the per-term Energy sum.
// The d2 == 0 test adds nothing there: psi > 0, so psi/0 is already
// +Inf. Terms are never reordered or split over several accumulators,
// because a different float sum can flip a decision at the zone
// boundary. For alpha != 2 math.Pow dominates and Energy stays.

// sumEnergy2 adds the alpha = 2 energies of stations st (powers pw) at
// p to sum, in index order.
func sumEnergy2(st []geom.Point, pw []float64, p geom.Point, sum float64) float64 {
	pw = pw[:len(st)]
	for j, s := range st {
		sum += pw[j] / geom.Dist2(s, p)
	}
	return sum
}

// Interference returns I(s_i, p) = E(S - {s_i}, p): the summed energy
// of every station other than i at p, in index order.
//
//sinr:hotpath
func (n *Network) Interference(i int, p geom.Point) float64 {
	if n.alpha != 2 {
		var sum float64
		for j := range n.stations {
			if j != i {
				sum += n.Energy(j, p)
			}
		}
		return sum
	}
	// Stations [0, a) and [b, n): all of them when i is out of range.
	a := min(max(i, 0), len(n.stations))
	b := a
	if a == i && i < len(n.stations) {
		b = i + 1
	}
	sum := sumEnergy2(n.stations[:a], n.powers[:a], p, 0)
	return sumEnergy2(n.stations[b:], n.powers[b:], p, sum)
}

// SINR returns SINR(s_i, p) per Equation (1) of the paper. It returns
// +Inf at p == s_i and 0 when p coincides with an interfering station.
// The interferer case dominates: at a point coinciding with both s_i
// and a co-located interferer (Energy and Interference both +Inf) the
// result is 0, matching the zone convention that a point coinciding
// with an interferer is never heard (H_i degenerates for shared
// locations).
//
//sinr:hotpath
func (n *Network) SINR(i int, p geom.Point) float64 {
	inter := n.Interference(i, p)
	if math.IsInf(inter, 1) {
		return 0
	}
	e := n.Energy(i, p)
	if math.IsInf(e, 1) {
		return math.Inf(1)
	}
	return e / (inter + n.noise)
}

// Heard reports whether the transmission of station i is received
// correctly at p: SINR(s_i, p) >= beta, with the zone convention
// H_i = {p : SINR >= beta} ∪ {s_i} (so s_i itself is heard) except
// that a point coinciding with an interferer never is heard — the
// interferer case wins even at p == s_i when another station shares
// the location.
//
//sinr:hotpath
func (n *Network) Heard(i int, p geom.Point) bool {
	return n.SINR(i, p) >= n.beta
}

// HeardBy returns the index of the station heard at p and true, or
// (0, false) when no station is heard. For beta > 1 at most one
// station can be heard at any point, so the answer is unique; for
// beta <= 1 the lowest-index heard station is returned. Index-shaped
// answers (resolve.StationIndex, reception-map pixels) report the same
// no-station answer as the NoStationHeard (-1) sentinel, since they
// have no per-element ok bool.
//
// HeardBy is the scan oracle: it tests every station in index order,
// O(n^2) in the worst case, and decides each exactly as Heard does.
// Each interference sum is cut short once its partial value already
// pushes the SINR below beta (see heardScan).
func (n *Network) HeardBy(p geom.Point) (int, bool) {
	for i := range n.stations {
		if n.heardScan(i, p) {
			return i, true
		}
	}
	return 0, false
}

// heardScan is Heard(i, p) with an exact early exit. It sums the
// interference in Interference's order and, every 16 terms, evaluates
// the expression SINR ends with on the partial sum; once that is below
// beta the station cannot be heard. The exit never changes an answer:
// partial sums of non-negative terms only grow under round-to-nearest
// addition, and rounded division is monotone in its divisor, so the
// final SINR is at most the partial one. A +Inf energy (p on s_i)
// takes Heard's path, which applies SINR's conventions.
func (n *Network) heardScan(i int, p geom.Point) bool {
	e := n.Energy(i, p)
	if math.IsInf(e, 1) {
		return n.Heard(i, p)
	}
	var sum float64
	if n.alpha == 2 {
		var out bool
		if sum, out = n.scanEnergy2(0, i, p, e, sum); out {
			return false
		}
		if sum, out = n.scanEnergy2(i+1, len(n.stations), p, e, sum); out {
			return false
		}
	} else {
		for j := range n.stations {
			if j == i {
				continue
			}
			sum += n.Energy(j, p)
			if j&15 == 15 && e/(sum+n.noise) < n.beta {
				return false
			}
		}
	}
	// A +Inf sum gives e/(+Inf) = 0 < beta, as SINR's interferer
	// convention does.
	return e/(sum+n.noise) >= n.beta
}

// scanEnergy2 is heardScan's alpha = 2 loop over stations [from, to):
// it adds their energies at p to sum in index order and reports out =
// true once, at a j with j&15 == 15, the partial SINR of energy e falls
// below beta.
func (n *Network) scanEnergy2(from, to int, p geom.Point, e, sum float64) (float64, bool) {
	st, pw := n.stations[:to], n.powers[:to]
	for j := from; j < to; j++ {
		sum += pw[j] / geom.Dist2(st[j], p)
		if j&15 == 15 && e/(sum+n.noise) < n.beta {
			return sum, true
		}
	}
	return sum, false
}

// Strongest returns the station with the largest received energy
// E(s_i, p), the lowest index winning ties, in one allocation-free
// O(n) pass. For beta > 1 it is the only station that can be heard at
// p (Observation 2.2 with per-station powers): every other station k
// has the strongest one's energy inside its interference sum, so
// SINR(k, p) <= 1 in floating point too. ok is false only when no
// energy compares, i.e. p has a NaN coordinate.
//
//sinr:hotpath
func (n *Network) Strongest(p geom.Point) (int, bool) {
	best, bestE := -1, math.Inf(-1)
	if n.alpha == 2 {
		pw := n.powers[:len(n.stations)]
		for i, s := range n.stations {
			if e := pw[i] / geom.Dist2(s, p); e > bestE {
				best, bestE = i, e
			}
		}
		return best, best >= 0
	}
	for i := range n.stations {
		if e := n.Energy(i, p); e > bestE {
			best, bestE = i, e
		}
	}
	return best, best >= 0
}

// Kappa returns min{dist(s_i, s_j) : j != i}, the distance from
// station i to its closest peer (the parameter kappa of Theorem 4.1).
// It returns 0 for single-station networks or shared locations.
func (n *Network) Kappa(i int) float64 {
	best := math.Inf(1)
	for j, s := range n.stations {
		if j != i {
			if d := geom.Dist(s, n.stations[i]); d < best {
				best = d
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// Transform applies a similarity transform f (rotation, translation,
// scaling by sigma) to the network, rescaling the background noise to
// N / sigma^2 exactly as Lemma 2.3 prescribes, so that SINR values are
// preserved: SINR_A(s_i, p) == SINR_f(A)(f(s_i), f(p)).
func (n *Network) Transform(f geom.Transform) (*Network, error) {
	sigma := f.Scale()
	if sigma == 0 {
		return nil, errors.New("core: degenerate transform")
	}
	if n.alpha != 2 {
		return nil, ErrNeedAlpha2
	}
	out := &Network{
		stations: f.ApplyAll(n.stations),
		powers:   append([]float64(nil), n.powers...),
		noise:    n.noise / (sigma * sigma),
		beta:     n.beta,
		alpha:    n.alpha,
		uniform:  n.uniform,
	}
	return out, nil
}

// Subnetwork returns the network obtained by keeping only the stations
// with the given indices (e.g. silencing a station, as in Figure 1(C)
// of the paper). Indices must be valid and non-empty.
func (n *Network) Subnetwork(keep []int) (*Network, error) {
	if len(keep) == 0 {
		return nil, ErrTooFewStations
	}
	st := make([]geom.Point, 0, len(keep))
	pw := make([]float64, 0, len(keep))
	for _, idx := range keep {
		if idx < 0 || idx >= len(n.stations) {
			return nil, fmt.Errorf("core: station index %d out of range [0, %d)", idx, len(n.stations))
		}
		st = append(st, n.stations[idx])
		pw = append(pw, n.powers[idx])
	}
	return NewNetwork(st, n.noise, n.beta, WithAlpha(n.alpha), WithPowers(pw))
}

// WithStation returns a copy of the network with one extra station
// appended at location s with power psi (used by the Section 3.4
// noise-removal construction and the Lemma 3.10 merge).
func (n *Network) WithStation(s geom.Point, psi float64) (*Network, error) {
	st := append(n.Stations(), s)
	pw := append(append([]float64(nil), n.powers...), psi)
	return NewNetwork(st, n.noise, n.beta, WithAlpha(n.alpha), WithPowers(pw))
}

// WithNoise returns a copy of the network with the background noise
// replaced by noise.
func (n *Network) WithNoise(noise float64) (*Network, error) {
	return NewNetwork(n.stations, noise, n.beta, WithAlpha(n.alpha), WithPowers(n.powers))
}

// String implements fmt.Stringer.
func (n *Network) String() string {
	kind := "general"
	if n.uniform {
		kind = "uniform"
	}
	return fmt.Sprintf("Network{n=%d %s N=%.4g beta=%.4g alpha=%.4g}",
		len(n.stations), kind, n.noise, n.beta, n.alpha)
}
