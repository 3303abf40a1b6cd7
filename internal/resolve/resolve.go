package resolve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/par"
)

// Kind identifies a resolver backend.
type Kind int

// The backends. KindLocator is the default of registry-style callers
// (zero value is KindExact so an uninitialized Kind is the ground
// truth, never an approximation). KindDynamic is the epoch-snapshot
// backend of a dynamic network: unlike the static four it cannot be
// built from a bare *core.Network — use NewDynamic / NewDynamicSnapshot
// with a dynamic engine — so it is not listed by Kinds().
const (
	KindExact   Kind = iota // direct SINR evaluation (ground truth)
	KindLocator             // Theorem 3 point-location structure
	KindVoronoi             // nearest-candidate + one SINR check
	KindUDG                 // graph-based UDG/protocol baseline
	KindDynamic             // dynamic-network epoch snapshot
)

// NumKinds is the number of defined backends. Kind values are dense
// (0..NumKinds-1), so per-kind tables — the serve layer's per-resolver
// metric arrays — can be plain arrays indexed by Kind.
const NumKinds = int(KindDynamic) + 1

// String implements fmt.Stringer; the names double as the wire and
// flag vocabulary ("exact", "locator", "voronoi", "udg").
func (k Kind) String() string {
	switch k {
	case KindExact:
		return "exact"
	case KindLocator:
		return "locator"
	case KindVoronoi:
		return "voronoi"
	case KindUDG:
		return "udg"
	case KindDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every static backend, in Kind order — the iteration set
// of cross-backend comparisons and CI matrices. KindDynamic is not
// listed: it answers for a dynamic engine's current epoch, not for a
// fixed network, so it has no place in a fixed-network comparison.
func Kinds() []Kind { return []Kind{KindExact, KindLocator, KindVoronoi, KindUDG} }

// ParseKind maps a wire/flag name to its Kind. The empty string maps
// to KindLocator, the serving default.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "":
		return KindLocator, nil
	case "exact":
		return KindExact, nil
	case "locator":
		return KindLocator, nil
	case "voronoi":
		return KindVoronoi, nil
	case "udg":
		return KindUDG, nil
	case "dynamic":
		return KindDynamic, nil
	default:
		return 0, fmt.Errorf("resolve: unknown resolver kind %q (want exact, locator, voronoi, udg or dynamic)", s)
	}
}

// Stats is a resolver's self-description: what algorithm answers, how
// it was parameterized, and what its construction cost. Fields not
// applicable to a backend are zero (Eps and ExactFallback are
// locator-only; ConnRadius and InterfRadius are UDG-only).
type Stats struct {
	Kind     Kind
	Stations int
	Workers  int // batch/stream worker count (0 = one per CPU)

	// Epoch is the dynamic-network epoch the resolver answers from
	// (dynamic and voronoi backends only; a DynamicResolver reports
	// the epoch current at the Stats call).
	Epoch uint64

	Eps           float64 // locator performance parameter
	ExactFallback bool    // locator: H? answers settled exactly
	UncertainSize int     // locator: total |T?| across stations

	// Spatial-index self-description (locator-only; zero when the
	// backend has none). IndexCells is the grid size, IndexOccupied
	// the cells with at least one candidate station, IndexMaxPerCell
	// the worst-case candidate list a query can hit and
	// IndexAvgPerCell the mean over occupied cells.
	SpatialIndex    bool
	IndexCells      int
	IndexOccupied   int
	IndexMaxPerCell int
	IndexAvgPerCell float64

	ConnRadius   float64 // UDG connectivity radius
	InterfRadius float64 // UDG interference radius

	BuildCost time.Duration // wall time of construction
}

// Resolver is the one query interface over every reception model: it
// answers "which station is heard at p?" for a fixed network. The
// no-station answer convention is documented once in the package
// comment. Implementations are immutable and safe for concurrent use.
type Resolver interface {
	// Resolve answers one query. It never blocks on other queries;
	// ctx is consulted only by implementations with per-query work
	// worth cancelling (none of the built-in backends are).
	Resolve(ctx context.Context, p geom.Point) core.Location

	// ResolveBatch answers one query per input point, sharding the
	// slice over the resolver's worker pool and writing answers to
	// dst at the index of their query point. dst must have exactly
	// len(ps) entries. Answers are identical to calling Resolve
	// point-by-point; a ctx cancellation abandons unstarted shards
	// and returns ctx.Err() (dst is then partially written).
	ResolveBatch(ctx context.Context, ps []geom.Point, dst []core.Location) error

	// ResolveStream answers a live stream of queries: points read
	// from in are resolved on the worker pool and delivered on the
	// returned channel in input order. The channel closes after the
	// last answer or as soon as ctx is cancelled; abandoning the
	// stream without cancelling ctx leaks the pipeline goroutines.
	ResolveStream(ctx context.Context, in <-chan geom.Point) <-chan core.Location

	// Stats reports the backend's kind, parameters and build cost.
	Stats() Stats
}

// engine is the shared batch/stream machinery every backend embeds:
// a per-point answer function fanned out by par.Chunks and par.Stream.
type engine struct {
	fn      func(p geom.Point) core.Location
	workers int
	stats   Stats
}

// Resolve implements Resolver.
func (e *engine) Resolve(_ context.Context, p geom.Point) core.Location { return e.fn(p) }

// ResolveBatch implements Resolver.
func (e *engine) ResolveBatch(ctx context.Context, ps []geom.Point, dst []core.Location) error {
	if len(dst) != len(ps) {
		return fmt.Errorf("resolve: dst has %d entries for %d points", len(dst), len(ps))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled atomic.Bool
	par.Chunks(len(ps), e.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Checking ctx.Err() costs a shared mutex lock on HTTP
			// request contexts, so probe it once per block rather
			// than per point — responsiveness within ~256 cheap
			// queries, without serializing the workers on one lock.
			if (i-lo)%256 == 0 && ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			dst[i] = e.fn(ps[i])
		}
	})
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// ResolveStream implements Resolver.
func (e *engine) ResolveStream(ctx context.Context, in <-chan geom.Point) <-chan core.Location {
	return par.Stream(ctx, in, e.workers, e.fn)
}

// Stats implements Resolver.
func (e *engine) Stats() Stats { return e.stats }

// New constructs the backend named by kind for net — the registry
// entry point: a serving layer or benchmark that got "udg" off the
// wire calls New(KindUDG, net, opts...) and treats the result as any
// other Resolver.
func New(kind Kind, net *core.Network, opts ...Option) (Resolver, error) {
	switch kind {
	case KindExact:
		return NewExact(net, opts...)
	case KindLocator:
		return NewLocator(net, opts...)
	case KindVoronoi:
		return newVoronoi(net, opts...)
	case KindUDG:
		return NewUDG(net, opts...)
	case KindDynamic:
		return nil, fmt.Errorf("resolve: the dynamic backend answers for a dynamic engine, not a bare network; use NewDynamic or NewDynamicSnapshot")
	default:
		return nil, fmt.Errorf("resolve: unknown resolver kind %v", kind)
	}
}

// StationIndex flattens a Location to the batch wire shape: the heard
// station's index, or core.NoStationHeard for a NoReception (or
// unresolved Uncertain) answer — see the package comment for the
// sentinel contract.
func StationIndex(loc core.Location) int {
	if loc.Kind == core.Reception {
		return loc.Station
	}
	return core.NoStationHeard
}
