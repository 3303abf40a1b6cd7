package resolve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/par"
)

// SnapshotResolver answers every query from one immutable epoch
// snapshot of a dynamic network. It is what a serving layer caches per
// (network, epoch): later mutations never change its answers, so a
// batch or stream handed to it is pinned to its epoch by construction.
// Construction is O(1) — the snapshot already carries every structure
// a query needs — which is what makes per-epoch resolver turnover
// cheap where the static backends would rebuild.
type SnapshotResolver struct {
	engine
	snap *dynamic.Snapshot
}

// NewDynamicSnapshot wraps one epoch snapshot. Only WithWorkers
// applies.
func NewDynamicSnapshot(snap *dynamic.Snapshot, opts ...Option) (*SnapshotResolver, error) {
	if snap == nil {
		return nil, fmt.Errorf("resolve: nil dynamic snapshot")
	}
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	r := &SnapshotResolver{snap: snap}
	r.engine = engine{
		fn:      snap.Locate,
		workers: c.workers,
		stats:   dynamicStats(snap, c.workers),
	}
	return r, nil
}

// Snapshot returns the pinned epoch.
func (r *SnapshotResolver) Snapshot() *dynamic.Snapshot { return r.snap }

// newVoronoi builds the voronoi backend: the first epoch snapshot of a
// dynamic engine over net, the engine the serving layer answers the
// voronoi kind with. Its answer is Observation 2.2's single candidate
// (the nearest station, or the strongest signal under per-station
// powers) settled by one SINR check, with the scan for beta <= 1.
// Only WithWorkers applies.
func newVoronoi(net *core.Network, opts ...Option) (*SnapshotResolver, error) {
	start := time.Now() //sinr:nondeterministic-ok BuildCost wall-clock telemetry; never feeds resolver answers
	dyn, err := dynamic.New(net)
	if err != nil {
		return nil, err
	}
	r, err := NewDynamicSnapshot(dyn.Snapshot(), opts...)
	if err != nil {
		return nil, err
	}
	r.stats.Kind = KindVoronoi
	r.stats.BuildCost = time.Since(start) //sinr:nondeterministic-ok BuildCost wall-clock telemetry; never feeds resolver answers
	return r, nil
}

func dynamicStats(snap *dynamic.Snapshot, workers int) Stats {
	return Stats{
		Kind:         KindDynamic,
		Stations:     snap.NumStations(),
		Workers:      workers,
		Epoch:        snap.Epoch(),
		SpatialIndex: snap.GridEnabled(),
	}
}

// DynamicResolver is the epoch-aware Resolver over a live dynamic
// network: every Resolve, ResolveBatch and ResolveStream call pins the
// epoch current when the call starts and answers entirely from it, so
// an in-flight batch or stream is never torn between two station sets
// by a concurrent Apply — the same snapshot-consistency contract the
// serving layer gives hot swaps, at the library level. Use Pin to hold
// one epoch across several calls.
type DynamicResolver struct {
	dyn     *dynamic.Network
	workers int
}

// NewDynamic wraps a dynamic network engine. Only WithWorkers applies.
func NewDynamic(dyn *dynamic.Network, opts ...Option) (*DynamicResolver, error) {
	if dyn == nil {
		return nil, fmt.Errorf("resolve: nil dynamic network")
	}
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return &DynamicResolver{dyn: dyn, workers: c.workers}, nil
}

// Network returns the underlying dynamic engine.
func (r *DynamicResolver) Network() *dynamic.Network { return r.dyn }

// Pin returns a SnapshotResolver for the current epoch: answers frozen
// even across later mutations, for callers that must correlate several
// calls against one station set.
func (r *DynamicResolver) Pin() *SnapshotResolver {
	sr, _ := NewDynamicSnapshot(r.dyn.Snapshot(), WithWorkers(r.workers))
	return sr
}

// Resolve implements Resolver, answering from the epoch current at the
// call.
func (r *DynamicResolver) Resolve(_ context.Context, p geom.Point) core.Location {
	return r.dyn.Snapshot().Locate(p)
}

// ResolveBatch implements Resolver; the whole batch is answered from
// the epoch current when the call starts.
func (r *DynamicResolver) ResolveBatch(ctx context.Context, ps []geom.Point, dst []core.Location) error {
	e := engine{fn: r.dyn.Snapshot().Locate, workers: r.workers}
	return e.ResolveBatch(ctx, ps, dst)
}

// ResolveStream implements Resolver; the whole stream is answered from
// the epoch current when the call starts, however long it runs.
func (r *DynamicResolver) ResolveStream(ctx context.Context, in <-chan geom.Point) <-chan core.Location {
	return par.Stream(ctx, in, r.workers, r.dyn.Snapshot().Locate)
}

// Stats implements Resolver, describing the epoch current at the call.
func (r *DynamicResolver) Stats() Stats {
	return dynamicStats(r.dyn.Snapshot(), r.workers)
}
