package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Generator produces pseudo-random station deployments. It wraps a
// seeded *rand.Rand so experiments are reproducible run-to-run.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a Generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// uniformPoint draws one point uniformly at random from box; every
// uniform draw in this package goes through it so the sampling
// convention lives in one place.
func (g *Generator) uniformPoint(box geom.Box) geom.Point {
	return geom.Pt(
		box.Min.X+g.rng.Float64()*box.Width(),
		box.Min.Y+g.rng.Float64()*box.Height(),
	)
}

// UniformInBox returns n stations drawn uniformly at random from box.
func (g *Generator) UniformInBox(n int, box geom.Box) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = g.uniformPoint(box)
	}
	return pts
}

// UniformSeparated returns n stations uniform in box with pairwise
// distance at least minSep (simple dart throwing; returns an error if
// the density makes placement infeasible after maxTries attempts per
// point).
func (g *Generator) UniformSeparated(n int, box geom.Box, minSep float64) ([]geom.Point, error) {
	const maxTries = 2000
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		placed := false
		for try := 0; try < maxTries; try++ {
			cand := g.uniformPoint(box)
			ok := true
			for _, p := range pts {
				if geom.Dist(p, cand) < minSep {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, cand)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("workload: cannot place %d stations with separation %v in %v (placed %d)",
				n, minSep, box, len(pts))
		}
	}
	return pts, nil
}

// QueryPoints returns n query points uniform in box (for point-location
// benchmarks).
func (g *Generator) QueryPoints(n int, box geom.Box) []geom.Point {
	return g.UniformInBox(n, box)
}

// HotspotPoints returns n query points modelling skewed user traffic:
// roughly frac of them are Gaussian-distributed (stddev) around
// nCenters hotspot centers drawn uniformly in box, the rest uniform in
// box. Points falling outside box are clamped to its edge, so every
// query stays in the service area.
func (g *Generator) HotspotPoints(n int, box geom.Box, nCenters int, frac, stddev float64) []geom.Point {
	if nCenters < 1 {
		nCenters = 1
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	centers := g.UniformInBox(nCenters, box)
	pts := make([]geom.Point, n)
	for i := range pts {
		if g.rng.Float64() < frac {
			c := centers[g.rng.Intn(nCenters)]
			pts[i] = clampToBox(geom.Pt(
				c.X+g.rng.NormFloat64()*stddev,
				c.Y+g.rng.NormFloat64()*stddev,
			), box)
		} else {
			pts[i] = g.uniformPoint(box)
		}
	}
	return pts
}

// MobilityTrace simulates `walkers` independent random-waypoint users
// taking `steps` steps each inside box: every walker starts uniform in
// box, picks a uniform waypoint, moves toward it at the given speed
// (distance per step), and picks a new waypoint on arrival. The
// returned positions are time-ordered and step-major — all walkers'
// step-0 positions, then step-1, and so on; len = walkers * steps —
// so replaying the slice against a server reproduces the temporal
// locality of user mobility. Invalid parameters (non-positive counts,
// or a speed that is not a positive finite number) return nil.
func (g *Generator) MobilityTrace(walkers, steps int, box geom.Box, speed float64) []geom.Point {
	if walkers < 1 || steps < 1 || !(speed > 0) || math.IsInf(speed, 1) {
		return nil
	}
	pos := g.UniformInBox(walkers, box)
	dst := g.UniformInBox(walkers, box)
	out := make([]geom.Point, 0, walkers*steps)
	for s := 0; s < steps; s++ {
		for w := 0; w < walkers; w++ {
			out = append(out, pos[w])
			d := geom.Dist(pos[w], dst[w])
			if d <= speed {
				pos[w] = dst[w]
				dst[w] = g.uniformPoint(box)
				continue
			}
			pos[w] = geom.Pt(
				pos[w].X+(dst[w].X-pos[w].X)/d*speed,
				pos[w].Y+(dst[w].Y-pos[w].Y)/d*speed,
			)
		}
	}
	return out
}

// clampToBox projects p onto box.
func clampToBox(p geom.Point, box geom.Box) geom.Point {
	if p.X < box.Min.X {
		p.X = box.Min.X
	}
	if p.X > box.Max.X {
		p.X = box.Max.X
	}
	if p.Y < box.Min.Y {
		p.Y = box.Min.Y
	}
	if p.Y > box.Max.Y {
		p.Y = box.Max.Y
	}
	return p
}

// Float64 exposes the underlying RNG's uniform [0, 1) draw, so that
// experiments can derive auxiliary randomness from the same stream.
func (g *Generator) Float64() float64 { return g.rng.Float64() }

// ChurnKind classifies one churn event of a dynamic-network trace.
type ChurnKind int

// The three churn processes: a station arriving, a station departing,
// and a station's transmission power taking one multiplicative
// random-walk step.
const (
	ChurnArrive ChurnKind = iota
	ChurnDepart
	ChurnPower
)

// String implements fmt.Stringer; the names double as the sinrload
// -churn-kind flag vocabulary ("arrive", "depart", "power").
func (k ChurnKind) String() string {
	switch k {
	case ChurnArrive:
		return "arrive"
	case ChurnDepart:
		return "depart"
	case ChurnPower:
		return "power"
	default:
		return fmt.Sprintf("ChurnKind(%d)", int(k))
	}
}

// ChurnEvent is one single-station mutation of a churn trace. Station
// indexes the station set as it stands when the event is applied
// (arrivals append at the end, departures compact the set in order, so
// consumers replaying the trace agree on indices); Pos is the arrival
// location; Power is the arriving station's power or the power-walk
// step's new absolute power.
type ChurnEvent struct {
	Kind    ChurnKind
	Station int        // depart, power: index at event time
	Pos     geom.Point // arrive: location
	Power   float64    // arrive, power: absolute power
}

// churnMinStations is the floor below which a trace never lets the
// station set shrink: departures that would breach it are emitted as
// arrivals instead, so every prefix of the trace is a valid network.
const churnMinStations = 2

// ChurnTrace generates a reproducible sequence of single-station churn
// events over a deployment of n0 stations with uniform power 1:
// arrivals uniform in box, departures uniform over the current set,
// and power walks taking one multiplicative log-normal step (sigma
// powerSigma, clamped to [1/8, 8]) on a uniformly chosen station.
// pArrive, pDepart and pPower weight the three processes (they are
// normalized; a weighting that does not sum to a positive number is a
// programming error and panics). The generator
// tracks the virtual station set, so every departure index is valid at
// its point in the trace and the power of a walked station follows its
// own history across events.
func (g *Generator) ChurnTrace(n0, events int, box geom.Box, pArrive, pDepart, pPower, powerSigma float64) []ChurnEvent {
	if n0 < 1 || events < 1 {
		return nil
	}
	powers := make([]float64, n0)
	for i := range powers {
		powers[i] = 1
	}
	total := pArrive + pDepart + pPower
	if !(total > 0) { // catches non-positive sums and NaN
		panic("workload: churn process weights must sum to a positive number")
	}
	out := make([]ChurnEvent, 0, events)
	for len(out) < events {
		kind := ChurnArrive
		switch r := g.rng.Float64() * total; {
		case r < pArrive:
			kind = ChurnArrive
		case r < pArrive+pDepart:
			kind = ChurnDepart
		default:
			kind = ChurnPower
		}
		if kind == ChurnDepart && len(powers) <= churnMinStations {
			kind = ChurnArrive
		}
		switch kind {
		case ChurnArrive:
			out = append(out, ChurnEvent{Kind: ChurnArrive, Pos: g.uniformPoint(box), Power: 1})
			powers = append(powers, 1)
		case ChurnDepart:
			i := g.rng.Intn(len(powers))
			out = append(out, ChurnEvent{Kind: ChurnDepart, Station: i})
			powers = append(powers[:i:i], powers[i+1:]...)
		case ChurnPower:
			i := g.rng.Intn(len(powers))
			p := powers[i] * math.Exp(powerSigma*g.rng.NormFloat64())
			if p < 0.125 {
				p = 0.125
			}
			if p > 8 {
				p = 8
			}
			powers[i] = p
			out = append(out, ChurnEvent{Kind: ChurnPower, Station: i, Power: p})
		}
	}
	return out
}
