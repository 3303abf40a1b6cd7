package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Zone is a handle on the reception zone H_i of one station within a
// network. It provides membership tests, radial boundary probes and
// derived measurements. Zones are cheap views: they hold no
// precomputed state beyond the pair (network, index).
type Zone struct {
	net *Network
	idx int
}

// Zone returns a handle on the reception zone of station i.
func (n *Network) Zone(i int) (*Zone, error) {
	if i < 0 || i >= len(n.stations) {
		return nil, fmt.Errorf("core: station index %d out of range [0, %d)", i, len(n.stations))
	}
	return &Zone{net: n, idx: i}, nil
}

// Station returns the zone's station location.
func (z *Zone) Station() geom.Point { return z.net.stations[z.idx] }

// Index returns the station index.
func (z *Zone) Index() int { return z.idx }

// Network returns the underlying network.
func (z *Zone) Network() *Network { return z.net }

// Contains reports whether p is in the reception zone H_i.
func (z *Zone) Contains(p geom.Point) bool { return z.net.Heard(z.idx, p) }

// IsPointZone reports whether the zone degenerates because another
// station shares the location (Section 2.2): the co-located interferer
// dominates, so not even s_i itself is heard.
func (z *Zone) IsPointZone() bool { return z.net.SharesLocation(z.idx) }

// maxBoundaryDoubling caps the exponential search for an exterior
// point along a ray. 64 doublings from kappa overflow any realistic
// geometry, so hitting the cap indicates an unbounded zone (trivial
// network) or a degenerate configuration.
const maxBoundaryDoubling = 64

// RadialBoundary returns the distance from the station to the zone
// boundary in direction theta, located by bisection to absolute
// tolerance tol.
//
// Correctness relies on Lemma 3.1 (star shape): for a uniform power
// network with beta >= 1 the zone's intersection with any ray from
// s_i is a single interval, so the first not-heard point brackets the
// boundary. The method returns an error for networks where the star
// property is not guaranteed (non-uniform powers or beta < 1) — use
// LineBoundaryCrossings for those — and for unbounded zones.
func (z *Zone) RadialBoundary(theta, tol float64) (float64, error) {
	if !z.net.uniform {
		return 0, ErrNeedUniform
	}
	if z.net.beta < 1 {
		return 0, fmt.Errorf("core: radial bisection requires beta >= 1 (got %v)", z.net.beta)
	}
	if z.IsPointZone() {
		return 0, nil
	}
	ray := z.ray(theta)

	// Initial probe scale: the nearest-peer distance, or 1 for a
	// single-station network.
	hi := z.net.Kappa(z.idx)
	if hi == 0 {
		hi = 1
	}
	lo := 0.0
	dbl := 0
	for z.net.Heard(z.idx, ray.at(hi)) {
		lo = hi
		hi *= 2
		dbl++
		if dbl > maxBoundaryDoubling {
			return 0, fmt.Errorf("core: zone appears unbounded along theta=%v", theta)
		}
	}
	return z.bisect(ray, lo, hi, tol), nil
}

// radialBoundaryHinted is RadialBoundary with a warm-start bracket
// around an expected radius (e.g. the boundary distance at a nearby
// angle during a trace). The bracket starts tol wide, centred on the
// hint. While its lo end is not heard, that end becomes hi and lo
// steps down; while its hi end is heard, that end becomes lo and hi
// steps up; each step doubles the last. Both ends of the bracket that
// reaches the bisection are evaluated, never assumed. A step that
// would leave [0.85*hint, 1.18*hint] falls back to the cold search.
// Within a trace the hint is off by about gamma^2/(32r), a small
// fraction of tol, so a probe usually costs two SINR evaluations.
// Callers must have already validated the star-shape preconditions.
func (z *Zone) radialBoundaryHinted(theta, tol, hint float64) (float64, error) {
	if hint <= 0 {
		return z.RadialBoundary(theta, tol)
	}
	ray := z.ray(theta)
	minR, maxR := hint*0.85, hint*1.18
	// A hair under tol wide: with ends at exactly hint ± tol/2, rounding
	// makes about half the brackets wider than tol, and each of those
	// would pay one more evaluation in bisect.
	lo, hi := hint-0.499*tol, hint+0.499*tol
	// Negated, so that a NaN tol (BRPOptions.Tol is the caller's) takes
	// the cold search instead of stepping forever.
	if !(lo >= minR && hi <= maxR) {
		return z.RadialBoundary(theta, tol)
	}
	step := tol
	if !z.net.Heard(z.idx, ray.at(lo)) {
		for {
			lo, hi = lo-step, lo
			step *= 2
			if lo < minR {
				return z.RadialBoundary(theta, tol)
			}
			if z.net.Heard(z.idx, ray.at(lo)) {
				break
			}
		}
	} else {
		for z.net.Heard(z.idx, ray.at(hi)) {
			lo, hi = hi, hi+step
			step *= 2
			if hi > maxR {
				return z.RadialBoundary(theta, tol)
			}
		}
	}
	return z.bisect(ray, lo, hi, tol), nil
}

// bisect narrows a bracket whose lo end is heard and whose hi end is
// not until it is at most tol wide (or float resolution stalls it), and
// returns its midpoint.
func (z *Zone) bisect(ray polarRay, lo, hi, tol float64) float64 {
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break
		}
		if z.net.Heard(z.idx, ray.at(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// polarRay is the ray from a station at angle theta, with the angle's
// cosine and sine computed once for all the probes along it.
type polarRay struct {
	s     geom.Point
	c, sn float64
}

// ray returns the ray from the zone's station at angle theta.
func (z *Zone) ray(theta float64) polarRay {
	return polarRay{s: z.Station(), c: math.Cos(theta), sn: math.Sin(theta)}
}

// at returns the point at distance r along the ray, bit for bit
// geom.PolarPoint(s, r, theta).
func (ray polarRay) at(r float64) geom.Point {
	return geom.Point{X: ray.s.X + r*ray.c, Y: ray.s.Y + r*ray.sn}
}

// BoundaryPoint returns the boundary point of the zone along direction
// theta (RadialBoundary composed with the polar map).
func (z *Zone) BoundaryPoint(theta, tol float64) (geom.Point, error) {
	r, err := z.RadialBoundary(theta, tol)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.PolarPoint(z.Station(), r, theta), nil
}

// MinMaxRadius samples the radial boundary at numSamples uniformly
// spaced angles and returns the extreme radii found together with the
// realizing angles. These estimate delta(s_i, H_i) (largest inscribed
// ball) and Delta(s_i, H_i) (smallest enclosing ball) of Section 2.1;
// for convex zones the estimates converge quickly with the sample
// count.
func (z *Zone) MinMaxRadius(numSamples int, tol float64) (rMin, rMax, thetaMin, thetaMax float64, err error) {
	if numSamples < 3 {
		numSamples = 3
	}
	rMin, rMax = math.Inf(1), 0
	for k := 0; k < numSamples; k++ {
		theta := 2 * math.Pi * float64(k) / float64(numSamples)
		r, rerr := z.RadialBoundary(theta, tol)
		if rerr != nil {
			return 0, 0, 0, 0, rerr
		}
		if r < rMin {
			rMin, thetaMin = r, theta
		}
		if r > rMax {
			rMax, thetaMax = r, theta
		}
	}
	return rMin, rMax, thetaMin, thetaMax, nil
}

// MeasuredFatness returns the sampled fatness parameter
// phi(s_i, H_i) = Delta/delta (Section 2.1) using numSamples radial
// probes.
func (z *Zone) MeasuredFatness(numSamples int, tol float64) (float64, error) {
	rMin, rMax, _, _, err := z.MinMaxRadius(numSamples, tol)
	if err != nil {
		return 0, err
	}
	if rMin == 0 {
		return math.Inf(1), nil
	}
	return rMax / rMin, nil
}

// SampleBoundary returns numSamples boundary points at uniformly
// spaced angles (a polygonal approximation of ∂H_i, suitable for area
// and perimeter estimation of convex zones).
func (z *Zone) SampleBoundary(numSamples int, tol float64) ([]geom.Point, error) {
	if numSamples < 3 {
		return nil, fmt.Errorf("core: need at least 3 boundary samples")
	}
	pts := make([]geom.Point, numSamples)
	for k := range pts {
		theta := 2 * math.Pi * float64(k) / float64(numSamples)
		p, err := z.BoundaryPoint(theta, tol)
		if err != nil {
			return nil, err
		}
		pts[k] = p
	}
	return pts, nil
}

// ApproxArea estimates area(H_i) from a polygonal boundary sample. For
// convex zones the estimate is a lower bound converging as O(1/m^2) in
// the sample count m.
func (z *Zone) ApproxArea(numSamples int, tol float64) (float64, error) {
	pts, err := z.SampleBoundary(numSamples, tol)
	if err != nil {
		return 0, err
	}
	return math.Abs(geom.Polygon(pts).Area()), nil
}

// ApproxPerimeter estimates per(H_i) from a polygonal boundary sample.
func (z *Zone) ApproxPerimeter(numSamples int, tol float64) (float64, error) {
	pts, err := z.SampleBoundary(numSamples, tol)
	if err != nil {
		return 0, err
	}
	return geom.Polygon(pts).Perimeter(), nil
}

// EnclosingBall returns the minimum enclosing ball of a boundary
// sample — a Delta-style measure that, unlike MinMaxRadius, is not
// anchored at the station (the paper's Delta(s_i, .) is; this variant
// measures the zone's intrinsic circumradius, useful for comparing the
// two notions).
func (z *Zone) EnclosingBall(numSamples int, tol float64) (geom.Ball, error) {
	pts, err := z.SampleBoundary(numSamples, tol)
	if err != nil {
		return geom.Ball{}, err
	}
	return geom.MinEnclosingBall(pts, nil), nil
}

// ConvexHullArea estimates the zone area via the convex hull of a
// boundary sample; for convex zones (Theorem 1) it agrees with
// ApproxArea and is robust to sample ordering.
func (z *Zone) ConvexHullArea(numSamples int, tol float64) (float64, error) {
	pts, err := z.SampleBoundary(numSamples, tol)
	if err != nil {
		return 0, err
	}
	return geom.Polygon(geom.ConvexHull(pts)).Area(), nil
}
