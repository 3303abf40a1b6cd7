package resolve

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/udg"
)

// ExactResolver answers every query by direct SINR evaluation
// (Network.HeardBy): one O(n) SINR sum per station, so O(n^2) per
// query in the worst case (HeardBy cuts each sum short once its
// station is out of reach), no preprocessing, exact by definition. It
// is the ground truth the other backends are measured against.
type ExactResolver struct {
	engine
	net *core.Network
}

// NewExact wraps net in an ExactResolver. Only WithWorkers applies.
func NewExact(net *core.Network, opts ...Option) (*ExactResolver, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	r := &ExactResolver{net: net}
	r.engine = engine{
		fn:      net.NaiveLocate,
		workers: c.workers,
		stats: Stats{
			Kind:     KindExact,
			Stations: net.NumStations(),
			Workers:  c.workers,
		},
	}
	return r, nil
}

// Network returns the underlying network.
func (r *ExactResolver) Network() *core.Network { return r.net }

// LocatorResolver answers through the Theorem 3 structure: O(log n)
// per query after an O(n^3/eps) build. With exact fallback (the
// default) queries landing in an uncertainty ring are settled by one
// direct SINR evaluation — Locator.ResolveUncertain, the one shared
// H? code path — so answers match ExactResolver point-for-point;
// without it, H? surfaces as core.Uncertain.
type LocatorResolver struct {
	engine
	loc *core.Locator
}

// NewLocator builds the Theorem 3 structure for net and wraps it.
// WithEpsilon, WithExactFallback and WithWorkers apply; the network
// must satisfy the Theorem 3 preconditions (uniform power, alpha = 2,
// beta > 1).
func NewLocator(net *core.Network, opts ...Option) (*LocatorResolver, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now() //sinr:nondeterministic-ok BuildCost wall-clock telemetry; never feeds resolver answers
	loc, err := core.BuildLocatorOpts(net, c.eps, core.BuildOptions{Workers: c.workers})
	if err != nil {
		return nil, err
	}
	buildCost := time.Since(start) //sinr:nondeterministic-ok BuildCost wall-clock telemetry; never feeds resolver answers
	fn := loc.Locate
	if c.exactFallback {
		fn = loc.LocateExact
	}
	// The build above carries the spatial index unless its cover boxes
	// overflow float64, where shardindex.Build returns nil and Locate
	// takes its kd-only path; a nil index reports zero Stats.
	sx := loc.SpatialIndex().Stats()
	stats := Stats{
		Kind:            KindLocator,
		Stations:        loc.NumStations(),
		Workers:         c.workers,
		Eps:             loc.Eps(),
		ExactFallback:   c.exactFallback,
		UncertainSize:   loc.NumUncertainCells(),
		SpatialIndex:    loc.SpatialIndex() != nil,
		IndexCells:      sx.Cols * sx.Rows,
		IndexOccupied:   sx.Occupied,
		IndexMaxPerCell: sx.MaxPerCell,
		IndexAvgPerCell: sx.AvgPerCell,
		BuildCost:       buildCost,
	}
	return &LocatorResolver{engine: engine{fn: fn, workers: c.workers, stats: stats}, loc: loc}, nil
}

// Locator returns the underlying Theorem 3 structure.
func (r *LocatorResolver) Locator() *core.Locator { return r.loc }

// UDGResolver answers under the graph-based UDG/protocol rule the
// paper argues against: station i is heard at p iff p is within the
// connectivity radius of s_i and no other station is within the
// interference radius of p. Unlike the other backends it is a
// different reception model, not an algorithm for the SINR one — its
// answers legitimately disagree with ExactResolver, and the
// disagreement rate is exactly what the Figure 2-4 experiments
// measure.
type UDGResolver struct {
	engine
	model *udg.Model
}

// NewUDG builds the graph-based baseline over net's stations.
// WithRadius, WithInterfRadius and WithWorkers apply; radii left
// unset default to DefaultUDGRadius(net).
func NewUDG(net *core.Network, opts ...Option) (*UDGResolver, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	conn := c.connRadius
	if conn == 0 {
		conn = DefaultUDGRadius(net)
	}
	interf := c.interfRadius
	if interf == 0 {
		interf = conn
	}
	start := time.Now() //sinr:nondeterministic-ok BuildCost wall-clock telemetry; never feeds resolver answers
	m, err := udg.New(net.Stations(), conn, interf)
	if err != nil {
		return nil, err
	}
	r := &UDGResolver{model: m}
	r.engine = engine{
		fn: func(p geom.Point) core.Location {
			if i, ok := m.HeardBy(p); ok {
				return core.Location{Kind: core.Reception, Station: i}
			}
			return core.Location{Kind: core.NoReception}
		},
		workers: c.workers,
		stats: Stats{
			Kind:         KindUDG,
			Stations:     net.NumStations(),
			Workers:      c.workers,
			ConnRadius:   conn,
			InterfRadius: interf,
			BuildCost:    time.Since(start), //sinr:nondeterministic-ok BuildCost wall-clock telemetry; never feeds resolver answers
		},
	}
	return r, nil
}

// Model returns the underlying graph-based model.
func (r *UDGResolver) Model() *udg.Model { return r.model }

// DefaultUDGRadius derives a comparison-worthy UDG radius from the
// network: the interference-free reception range of the weakest
// station, i.e. the r solving psi_min / (N * r^alpha) = beta — the
// most generous disk a station could ever cover under the SINR rule.
// For noiseless networks (infinite free-space range) it falls back to
// the largest nearest-peer distance, so no station is isolated; a
// single noiseless station gets radius 1.
func DefaultUDGRadius(net *core.Network) float64 {
	if net.Noise() > 0 {
		psiMin := math.Inf(1)
		for i := 0; i < net.NumStations(); i++ {
			if p := net.Power(i); p < psiMin {
				psiMin = p
			}
		}
		return math.Pow(psiMin/(net.Noise()*net.Beta()), 1/net.Alpha())
	}
	maxKappa := 0.0
	for i := 0; i < net.NumStations(); i++ {
		if k := net.Kappa(i); k > maxKappa {
			maxKappa = k
		}
	}
	if maxKappa > 0 {
		return maxKappa
	}
	return 1
}
