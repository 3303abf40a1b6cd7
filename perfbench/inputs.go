package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/workload"
)

// shape is one workload's traffic mix and sizes. The three workloads
// are chosen so that each layer does most of its work in one of them
// and little in another: serve/JSON dominates locator-uniform, SINR
// evaluation dominates dense-boundary, and only churn-power writes
// (dynamic.Apply, resolver-cache turnover, schedule repair).
type shape struct {
	name     string
	n        int     // stations at registration
	resolver string  // the backend every request names explicitly
	eps      float64 // locator performance parameter (locator only)
	batch    int     // points per /v1/locate request
	bodies   int     // distinct pre-encoded locate bodies, cycled
	setups   int     // registrations per run; setup_s and heap_mb are their medians
	points   string  // "uniform", "annulus" or "near"
	power    bool    // seeded log-normal per-station power in the spec

	// Writer (churn-power only): PATCH deltas at patchRate per second,
	// open loop, plus a greedy schedule request after every schedEvery
	// deltas.
	patchRate  float64
	schedEvery int

	// sample is the number of points per batch checked against the
	// O(n^2) exact oracle when the network is non-uniform; 0 checks all.
	sample int
}

// E18 geometry: constant density (box side 3*sqrt(n)), noise 0.01,
// beta 3, stations at least 0.05 apart.
const (
	netNoise = 0.01
	netBeta  = 3.0
	minSep   = 0.05
	netName  = "bench"
	// powerSigma is the log-normal spread of churn-power's initial
	// station powers and of its power-walk deltas.
	powerSigma = 0.5
)

var shapes = map[string]shape{
	"locator-uniform": {
		name: "locator-uniform", n: 64, resolver: "locator", eps: 0.2,
		batch: 256, bodies: 256, setups: 3, points: "uniform",
	},
	"dense-boundary": {
		name: "dense-boundary", n: 10000, resolver: "dynamic",
		batch: 256, bodies: 64, setups: 5, points: "annulus",
	},
	"churn-power": {
		name: "churn-power", n: 512, resolver: "dynamic",
		batch: 16, bodies: 256, setups: 7, points: "near", power: true,
		patchRate: 100, schedEvery: 10, sample: 2,
	},
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	net        *core.Network // the network the window serves (generation 1)
	box        geom.Box
	setupSpecs [][]byte       // registration body per setup; the last is net's
	points     [][]geom.Point // per locate body
	bodies     [][]byte       // pre-encoded /v1/locate bodies

	events    []workload.ChurnEvent
	patches   [][]byte        // pre-encoded PATCH bodies, one per event
	deltas    []dynamic.Delta // the same events for the local mirror
	schedBody []byte
}

func makeInputs(s shape, seed int64, seconds float64) (*inputs, error) {
	gen := workload.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	side := 3 * math.Sqrt(float64(s.n))
	box := geom.NewBox(geom.Pt(-side/2, -side/2), geom.Pt(side/2, side/2))

	// Every setup but the last registers a network of its own, so the
	// setup_s and heap_mb medians average over deployments, not only
	// over repeats of one; the last one is the network the window serves.
	in := &inputs{box: box}
	for i := 1; i < s.setups; i++ {
		sub := seed*1000003 + int64(i)
		_, spec, err := makeNetwork(s, workload.NewGenerator(sub), rand.New(rand.NewSource(sub)), box)
		if err != nil {
			return nil, err
		}
		in.setupSpecs = append(in.setupSpecs, spec)
	}
	net, spec, err := makeNetwork(s, gen, rng, box)
	if err != nil {
		return nil, err
	}
	in.net = net
	in.setupSpecs = append(in.setupSpecs, spec)

	in.points = make([][]geom.Point, s.bodies)
	in.bodies = make([][]byte, s.bodies)
	for b := range in.points {
		pts := make([]geom.Point, s.batch)
		for k := range pts {
			if pts[k], err = queryPoint(s.points, net, gen, rng, box); err != nil {
				return nil, err
			}
		}
		req := serve.LocateRequest{Network: netName, Resolver: s.resolver, Eps: s.eps}
		req.Points = make([]serve.PointJSON, len(pts))
		for k, p := range pts {
			req.Points[k] = serve.PointJSON{X: p.X, Y: p.Y}
		}
		in.points[b] = pts
		if in.bodies[b], err = json.Marshal(&req); err != nil {
			return nil, err
		}
	}

	if s.patchRate > 0 {
		// Enough deltas for the whole window at the fixed rate, with
		// headroom; the writer stops at the deadline, not at the end of
		// the trace.
		in.events = churnTrace(rng, net, int(s.patchRate*seconds*1.25)+16, box)
		for _, ev := range in.events {
			body, err := json.Marshal(wireDelta(ev))
			if err != nil {
				return nil, err
			}
			in.patches = append(in.patches, body)
			in.deltas = append(in.deltas, localDelta(ev))
		}
		if in.schedBody, err = json.Marshal(serve.ScheduleRequest{Scheduler: "greedy"}); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// makeNetwork draws one deployment of the workload's shape and its
// registration body.
func makeNetwork(s shape, gen *workload.Generator, rng *rand.Rand, box geom.Box) (*core.Network, []byte, error) {
	stations, err := gen.UniformSeparated(s.n, box, minSep)
	if err != nil {
		return nil, nil, err
	}
	var powers []float64
	var opts []core.Option
	if s.power {
		powers = make([]float64, s.n)
		for i := range powers {
			powers[i] = logNormalPower(rng, 1)
		}
		opts = append(opts, core.WithPowers(powers))
	}
	net, err := core.NewNetwork(stations, netNoise, netBeta, opts...)
	if err != nil {
		return nil, nil, err
	}
	spec := serve.NetworkSpec{Name: netName, Noise: netNoise, Beta: netBeta, Resolver: s.resolver}
	spec.Stations = make([]serve.SpecStation, s.n)
	for i, p := range stations {
		spec.Stations[i] = serve.SpecStation{X: p.X, Y: p.Y}
		if powers != nil {
			spec.Stations[i].Power = powers[i]
		}
	}
	body, err := json.Marshal(&spec)
	return net, body, err
}

// churnTrace generates the writer's deltas in the vocabulary of
// workload.ChurnTrace: arrivals uniform in box, departures uniform over
// the current stations, and power walks taking one log-normal step on a
// uniformly chosen station, in equal shares. Unlike ChurnTrace, which
// draws each event's kind independently, it rotates arrive, depart,
// power, so the station count stays within one of n. With independent
// draws the count is a random walk (about ±30 stations after 1500
// deltas) and the O(n^2) exact scan every read pays drifts with it by
// several percent from seed to seed. Arrivals draw their power like the
// initial stations, so the power distribution stays the same throughout.
func churnTrace(rng *rand.Rand, net *core.Network, events int, box geom.Box) []workload.ChurnEvent {
	powers := make([]float64, net.NumStations())
	for i := range powers {
		powers[i] = net.Power(i)
	}
	out := make([]workload.ChurnEvent, 0, events)
	for len(out) < events {
		switch len(out) % 3 {
		case 0:
			pos := geom.Pt(box.Min.X+rng.Float64()*box.Width(), box.Min.Y+rng.Float64()*box.Height())
			p := logNormalPower(rng, 1)
			out = append(out, workload.ChurnEvent{Kind: workload.ChurnArrive, Pos: pos, Power: p})
			powers = append(powers, p)
		case 1:
			i := rng.Intn(len(powers))
			out = append(out, workload.ChurnEvent{Kind: workload.ChurnDepart, Station: i})
			powers = append(powers[:i], powers[i+1:]...)
		default:
			i := rng.Intn(len(powers))
			powers[i] = logNormalPower(rng, powers[i])
			out = append(out, workload.ChurnEvent{Kind: workload.ChurnPower, Station: i, Power: powers[i]})
		}
	}
	return out
}

// logNormalPower takes one log-normal step of spread powerSigma from
// base, clamped to [1/8, 8] as workload.ChurnTrace clamps its walks.
func logNormalPower(rng *rand.Rand, base float64) float64 {
	return math.Min(8, math.Max(0.125, base*math.Exp(powerSigma*rng.NormFloat64())))
}

// queryPoint draws one query point of the given kind:
//   - uniform: uniform over the deployment box, mostly the empty plane
//     the grid fast exit dismisses;
//   - annulus: in the Theorem 4.1 annulus of a random station, between
//     DeltaLower and min(DeltaUpper, kappa/2), where the zone boundary
//     lies and no index can answer without evaluating SINR;
//   - near: within kappa/2 of a random station (non-uniform networks
//     have no Theorem 4.1 bounds).
func queryPoint(kind string, net *core.Network, gen *workload.Generator, rng *rand.Rand, box geom.Box) (geom.Point, error) {
	switch kind {
	case "uniform":
		return gen.QueryPoints(1, box)[0], nil
	case "annulus":
		i := rng.Intn(net.NumStations())
		b, err := net.TheoremBounds(i)
		if err != nil {
			return geom.Point{}, err
		}
		hi := math.Min(b.DeltaUpper, b.Kappa/2)
		r := b.DeltaLower + rng.Float64()*(hi-b.DeltaLower)
		return geom.PolarPoint(net.Station(i), r, 2*math.Pi*rng.Float64()), nil
	case "near":
		i := rng.Intn(net.NumStations())
		r := rng.Float64() * net.Kappa(i) / 2
		return geom.PolarPoint(net.Station(i), r, 2*math.Pi*rng.Float64()), nil
	}
	return geom.Point{}, fmt.Errorf("unknown point kind %q", kind)
}

// wireDelta converts one churn event to the PATCH body.
func wireDelta(ev workload.ChurnEvent) serve.NetworkDeltaRequest {
	switch ev.Kind {
	case workload.ChurnArrive:
		return serve.NetworkDeltaRequest{Add: []serve.DeltaStationJSON{{X: ev.Pos.X, Y: ev.Pos.Y, Power: ev.Power}}}
	case workload.ChurnDepart:
		return serve.NetworkDeltaRequest{Remove: []int{ev.Station}}
	default:
		return serve.NetworkDeltaRequest{SetPower: []serve.PowerUpdateJSON{{Station: ev.Station, Power: ev.Power}}}
	}
}

// localDelta converts the same event for the local mirror engine.
func localDelta(ev workload.ChurnEvent) dynamic.Delta {
	switch ev.Kind {
	case workload.ChurnArrive:
		return dynamic.Delta{Add: []dynamic.Station{{Pos: ev.Pos, Power: ev.Power}}}
	case workload.ChurnDepart:
		return dynamic.Delta{Remove: []int{ev.Station}}
	default:
		return dynamic.Delta{SetPower: []dynamic.PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
	}
}
