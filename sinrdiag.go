// Package sinrdiag is a Go library reproducing "SINR Diagrams: Towards
// Algorithmically Usable SINR Models of Wireless Networks" (Avin,
// Emek, Kantor, Lotker, Peleg, Roditty — PODC 2009).
//
// It models wireless networks under the signal-to-interference-and-
// noise-ratio (SINR) rule, exposes their reception zones (the SINR
// diagram), certifies the paper's structural results — convexity
// (Theorem 1) and constant fatness (Theorem 2) of the zones of uniform
// power networks with path-loss 2 — and builds the approximate
// point-location data structure of Theorem 3: size O(n/eps), built in
// O(n^3/eps), answering queries in O(log n) with an eps-area
// uncertainty ring per zone.
//
// # Quick start
//
//	net, err := sinrdiag.NewUniform([]sinrdiag.Point{
//		{X: 0, Y: 0}, {X: 3, Y: 1}, {X: -1, Y: 2},
//	}, 0.01, 3) // noise N = 0.01, threshold beta = 3
//	if err != nil { ... }
//	heard, ok := net.HeardBy(sinrdiag.Pt(0.4, 0.2))
//
//	loc, err := net.BuildLocator(0.1) // Theorem 3 structure, eps = 0.1
//	answer := loc.Locate(sinrdiag.Pt(0.4, 0.2)) // H+ / H- / H?
//
// BuildLocator fans the per-station constructions out over one worker
// per CPU. Query traffic in bulk goes through a Resolver (below):
// ResolveBatch shards a slice and ResolveStream runs an ordered live
// pipeline, and every concurrent path returns answers identical to the
// serial one. For serving query traffic as a long-running process, the
// sinrserve binary (internal/serve) exposes the same engine over HTTP
// with named-network registration, atomic hot swap and a single-flight
// resolver cache.
//
// # The Resolver API
//
// The question every algorithm in this package answers is the same —
// "which station is heard at p?" — and the Resolver interface is its
// one query surface: Resolve (single point), ResolveBatch (sharded
// slice), ResolveStream (ordered live pipeline) and Stats (backend
// metadata), over four interchangeable backends:
//
//	r, err := sinrdiag.NewResolver(sinrdiag.ResolverLocator, net,
//		sinrdiag.WithEpsilon(0.05), sinrdiag.WithWorkers(8))
//	answer := r.Resolve(ctx, sinrdiag.Pt(0.4, 0.2))
//
//	NewExactResolver    direct SINR evaluation (ground truth, O(n^2)/query
//	                    in the worst case)
//	NewLocatorResolver  Theorem 3 structure (O(log n)/query; exact
//	                    fallback for H? rings on by default, disable
//	                    with WithExactFallback(false); carries a
//	                    sharded spatial index over zone cover boxes —
//	                    points outside every zone resolve H- from one
//	                    allocation-free grid lookup)
//	NewResolver(ResolverVoronoi, net)
//	                    single candidate + one SINR check (O(n)/query;
//	                    nearest, or strongest signal under per-station
//	                    powers), answered from the first epoch snapshot
//	                    of a dynamic engine over net
//	NewUDGResolver      graph-based UDG/protocol baseline (a different
//	                    reception model; WithRadius / WithInterfRadius)
//
// Construction is by functional options (WithWorkers, WithEpsilon,
// WithExactFallback, WithRadius, WithInterfRadius); network-level
// parameters (powers, alpha) stay on the network constructors
// (WithPowers, WithAlpha). The single-point entry points — HeardBy,
// NaiveLocate, VoronoiLocate, Locate/LocateExact — stay as the
// paper's algorithms and the test oracle; batches and streams go
// through a Resolver only. The README maps each removed batch, stream
// and options name to its Resolver replacement.
//
// # The no-station answer, in both shapes
//
// "No station is heard at p" surfaces in two equivalent shapes,
// depending on the API's return style:
//
//   - Single-point comma-ok APIs — Network.HeardBy, Locator.HeardBy —
//     return (0, false). The index is meaningless when ok is false;
//     always branch on ok, never on the index.
//   - Index-shaped answers — StationIndex of a resolver answer, raster
//     pixels, the sinrserve wire format — have no second return per
//     element, so they carry the sentinel index NoStationHeard (-1)
//     instead. Any index >= 0 in such an answer is a heard station.
//
// The two are interconvertible: comma-ok (i, true) corresponds to
// batch answer i, and (_, false) to NoStationHeard. Batch answers never
// use (0, false)'s ambiguous zero, so -1 is safe to compare directly.
//
// # Dynamic networks
//
// Everything above answers for a fixed station set. When stations
// join, leave, or change power while queries are in flight, wrap the
// network in a dynamic engine and mutate it with deltas:
//
//	dyn, err := sinrdiag.NewDynamicNetwork(net)
//	snap, err := dyn.Apply(sinrdiag.DynamicDelta{
//		Add: []sinrdiag.DynamicStation{{Pos: sinrdiag.Pt(2, 1)}},
//	})
//	heard, ok := snap.HeardBy(sinrdiag.Pt(0.4, 0.2))
//
// Every Apply produces a fresh immutable epoch Snapshot without
// paying full-rebuild cost on the hot path (spatial structures are
// patched copy-on-write; a from-scratch rebuild is amortized over
// the churn threshold, see WithRebuildFraction), and snapshots answer
// point-for-point identically to a from-scratch build on the same
// final station set. NewDynamicResolver adapts an engine to the
// Resolver interface with epoch pinning: a batch or stream answers
// entirely from the epoch current when the call starts, however many
// deltas land while it runs. The sinrserve binary exposes the same
// engine over HTTP as PATCH /v1/networks/{name}; see the README's
// "Dynamic networks" section for the delta wire format.
//
// # Link scheduling
//
// The application the paper's introduction motivates — scheduling
// transmission links against the physical model — is exposed as a
// scheduling surface over both reception models:
//
//	links := sinrdiag.DeriveLinks(stations, nil, 1)
//	prob, err := sinrdiag.NewSINRScheduling(links, 0.01, 3)
//	s, err := sinrdiag.BuildSchedule(sinrdiag.SchedGreedy, prob, sinrdiag.ByLength(links, true))
//	err = s.Validate(prob) // re-check every slot independently
//
// A SchedulingProblem answers slot-feasibility questions; the SINR
// problem (NewSINRScheduling) and the protocol problem
// (NewProtocolScheduling) both maintain incremental per-slot state —
// adding a link to a slot costs O(members) with a spatial fast-reject
// rather than O(members²) — and both keep a naive scan path
// (SlotFeasibleScan) as the cross-checking oracle. Three schedulers
// build on that surface: greedy first-fit (SchedGreedy), the
// length-class scheduler (SchedLenClass), and greedy plus a
// local-search improver (SchedRepair); RepairSchedule heals an
// existing schedule after the link set changes instead of starting
// over. The sinrserve binary serves the same engines as POST
// /v1/networks/{name}/schedule with repair-on-churn caching, and
// experiment E20 (sinrbench -sched-*) tracks the incremental engine's
// speedup over the scan in BENCH_sched.json.
//
// The facade re-exports the library's core types; the full API
// (geometry kit, polynomial/Sturm machinery, nearest-station kd-tree,
// UDG baselines, rasterization, experiment harness) lives in the
// internal packages and is exercised by the binaries under cmd/ and
// the examples under examples/.
package sinrdiag

import (
	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/sched"
)

// Point is a point in the Euclidean plane.
type Point = geom.Point

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Network is a wireless network <S, psi, N, beta> under the SINR rule.
type Network = core.Network

// Option customizes network construction (powers, path-loss alpha).
type Option = core.Option

// Zone is a handle on one station's reception zone H_i.
type Zone = core.Zone

// ZoneBounds packages delta/Delta bounds for a zone (Theorem 4.1 and
// the sampled refinements).
type ZoneBounds = core.ZoneBounds

// ConvexityReport summarizes a convexity certification run.
type ConvexityReport = core.ConvexityReport

// ThreeStationReport carries the Section 3.2 Sturm analysis artifacts.
type ThreeStationReport = core.ThreeStationReport

// QDS is the per-zone approximate point-location structure of
// Section 5.1.
type QDS = core.QDS

// Locator is the combined Theorem 3 point-location data structure.
// It is immutable once built: Locate, LocateExact and HeardBy are safe
// for concurrent use from any number of goroutines. For batches and
// streams, build a LocatorResolver (NewLocatorResolver) instead.
type Locator = core.Locator

// Location is a point-location answer.
type Location = core.Location

// LocationKind distinguishes H+, H- and H? answers.
type LocationKind = core.LocationKind

// CellType classifies grid cells (T+, T-, T?).
type CellType = core.CellType

// Grid is the gamma-spaced grid of Section 5.1.
type Grid = core.Grid

// Cell identifies one grid cell.
type Cell = core.Cell

// Location kinds and cell types, re-exported.
const (
	NoReception = core.NoReception
	Reception   = core.Reception
	Uncertain   = core.Uncertain

	TPlus     = core.TPlus
	TMinus    = core.TMinus
	TQuestion = core.TQuestion
)

// DefaultAlpha is the textbook path-loss exponent (2), the setting of
// the paper's theorems.
const DefaultAlpha = core.DefaultAlpha

// NoStationHeard is the sentinel index that StationIndex and the
// serving wire format report for points where no station is heard.
// It is the index-shaped equivalent of the comma-ok (0, false) answer
// of Network.HeardBy — see the package comment for the mapping.
const NoStationHeard = core.NoStationHeard

// DefaultWorkers is the worker count Network.BuildLocator fans out
// over, and the one a resolver uses when WithWorkers is unset or zero:
// one per schedulable CPU.
func DefaultWorkers() int { return core.DefaultWorkers() }

// NewNetwork builds a network with explicit noise and threshold;
// powers default to uniform 1 and alpha to 2 (see WithPowers and
// WithAlpha).
func NewNetwork(stations []Point, noise, beta float64, opts ...Option) (*Network, error) {
	return core.NewNetwork(stations, noise, beta, opts...)
}

// NewUniform builds a uniform power network <S, 1, N, beta> with
// alpha = 2 — the regime of Theorems 1, 2 and 3.
func NewUniform(stations []Point, noise, beta float64) (*Network, error) {
	return core.NewUniform(stations, noise, beta)
}

// WithAlpha overrides the path-loss exponent.
func WithAlpha(alpha float64) Option { return core.WithAlpha(alpha) }

// WithPowers sets per-station transmission powers.
func WithPowers(powers []float64) Option { return core.WithPowers(powers) }

// FatnessBound returns the Theorem 4.2 constant
// (sqrt(beta)+1)/(sqrt(beta)-1) bounding every zone's fatness.
func FatnessBound(beta float64) (float64, error) { return core.FatnessBound(beta) }

// MergeStations realizes the Lemma 3.10 two-stations-into-one
// construction.
func MergeStations(s1, s2, p1, p2 Point) (Point, error) {
	return core.MergeStations(s1, s2, p1, p2)
}

// ThreeStationAnalysis runs the Section 3.2 Sturm analysis of the
// three-station quartic.
func ThreeStationAnalysis(s1, s2 Point) (ThreeStationReport, error) {
	return core.ThreeStationAnalysis(s1, s2)
}

// Resolver is the one query interface over every reception model:
// Resolve / ResolveBatch / ResolveStream answer "which station is
// heard at p?" and Stats reports the backend's kind, parameters and
// build cost. The no-station answer convention (NoReception vs the
// NoStationHeard sentinel) is documented once on the interface's
// package (internal/resolve) and in this package's comment.
type Resolver = resolve.Resolver

// ResolverKind identifies a resolver backend (exact, locator,
// voronoi, udg).
type ResolverKind = resolve.Kind

// ResolverStats is a resolver's self-description (kind, parameters,
// build cost).
type ResolverStats = resolve.Stats

// ResolverOption customizes resolver construction; options irrelevant
// to a backend are validated but ignored, so one option slice can
// configure any kind.
type ResolverOption = resolve.Option

// The four resolver backends.
const (
	ResolverExact   = resolve.KindExact
	ResolverLocator = resolve.KindLocator
	ResolverVoronoi = resolve.KindVoronoi
	ResolverUDG     = resolve.KindUDG
)

// DefaultResolverEpsilon is the Theorem 3 performance parameter used
// when a LocatorResolver is built without WithEpsilon.
const DefaultResolverEpsilon = resolve.DefaultEps

// ExactResolver answers by direct SINR evaluation — the ground truth.
type ExactResolver = resolve.ExactResolver

// LocatorResolver answers through the Theorem 3 structure, settling
// uncertainty rings exactly unless WithExactFallback(false).
type LocatorResolver = resolve.LocatorResolver

// UDGResolver answers under the graph-based UDG/protocol rule — the
// baseline reception model the paper argues against.
type UDGResolver = resolve.UDGResolver

// NewResolver builds the backend named by kind — the registry entry
// point used when the kind arrives as data (a wire field, a flag).
func NewResolver(kind ResolverKind, net *Network, opts ...ResolverOption) (Resolver, error) {
	return resolve.New(kind, net, opts...)
}

// NewExactResolver wraps net in the ground-truth backend.
func NewExactResolver(net *Network, opts ...ResolverOption) (*ExactResolver, error) {
	return resolve.NewExact(net, opts...)
}

// NewLocatorResolver builds the Theorem 3 structure for net and wraps
// it (WithEpsilon, WithExactFallback, WithWorkers apply).
func NewLocatorResolver(net *Network, opts ...ResolverOption) (*LocatorResolver, error) {
	return resolve.NewLocator(net, opts...)
}

// NewUDGResolver builds the graph-based baseline over net's stations
// (WithRadius, WithInterfRadius, WithWorkers apply).
func NewUDGResolver(net *Network, opts ...ResolverOption) (*UDGResolver, error) {
	return resolve.NewUDG(net, opts...)
}

// ParseResolverKind maps a wire/flag name ("exact", "locator",
// "voronoi", "udg"; "" means locator) to its ResolverKind.
func ParseResolverKind(s string) (ResolverKind, error) { return resolve.ParseKind(s) }

// ResolverKinds lists every backend, in kind order.
func ResolverKinds() []ResolverKind { return resolve.Kinds() }

// WithWorkers sets the worker count used by ResolveBatch,
// ResolveStream and the locator build (0 = one per CPU, 1 = serial;
// answers are identical for every setting).
func WithWorkers(workers int) ResolverOption { return resolve.WithWorkers(workers) }

// WithEpsilon sets the Theorem 3 performance parameter of a
// LocatorResolver (default DefaultResolverEpsilon).
func WithEpsilon(eps float64) ResolverOption { return resolve.WithEpsilon(eps) }

// WithExactFallback controls whether a LocatorResolver settles H?
// answers exactly (default true) or surfaces Uncertain to the caller.
func WithExactFallback(on bool) ResolverOption { return resolve.WithExactFallback(on) }

// WithRadius sets a UDGResolver's connectivity radius (and its
// interference radius, unless WithInterfRadius overrides it); zero
// means DefaultUDGRadius of the network.
func WithRadius(r float64) ResolverOption { return resolve.WithRadius(r) }

// WithInterfRadius sets a UDGResolver's interference radius
// independently (the Quasi-UDG model).
func WithInterfRadius(r float64) ResolverOption { return resolve.WithInterfRadius(r) }

// DefaultUDGRadius derives a comparison-worthy UDG radius from the
// network: the interference-free reception range of its weakest
// station, with documented fallbacks for noiseless networks.
func DefaultUDGRadius(net *Network) float64 { return resolve.DefaultUDGRadius(net) }

// StationIndex flattens a Location to the batch wire shape: the heard
// station's index, or NoStationHeard for a no-reception answer.
func StationIndex(loc Location) int { return resolve.StationIndex(loc) }

// DynamicNetwork is a versioned dynamic station set: Apply takes a
// DynamicDelta and produces a fresh immutable epoch DynamicSnapshot,
// patching the spatial structures copy-on-write below the churn
// threshold and rebuilding them amortized above it. Apply calls are
// serialized; snapshots are safe for concurrent use and queries
// against an older epoch are never disturbed by later mutations.
type DynamicNetwork = dynamic.Network

// DynamicSnapshot is one immutable epoch of a dynamic network: the
// station set after some prefix of the mutation log, answering
// HeardBy/Locate point-for-point identically to a from-scratch build
// on the same stations.
type DynamicSnapshot = dynamic.Snapshot

// DynamicDelta is one batch of mutations against a specific epoch:
// SetPower first, then Remove, then Add, all addressing stations by
// their index in the epoch the delta is applied to.
type DynamicDelta = dynamic.Delta

// DynamicStation is an arriving station of a DynamicDelta (zero Power
// means the uniform default 1).
type DynamicStation = dynamic.Station

// DynamicPowerUpdate changes the transmission power of one existing
// station.
type DynamicPowerUpdate = dynamic.PowerUpdate

// DynamicApplyStats describes how one epoch came to be: the
// maintenance path taken, the mutation counts, and the churn fraction
// against the amortized-rebuild threshold.
type DynamicApplyStats = dynamic.ApplyStats

// DynamicApplyPath says which maintenance path an Apply took
// (incremental or rebuild).
type DynamicApplyPath = dynamic.ApplyPath

// The two maintenance paths of a dynamic Apply.
const (
	DynamicPathIncremental = dynamic.PathIncremental
	DynamicPathRebuild     = dynamic.PathRebuild
)

// DefaultRebuildFraction is the churn threshold of the amortized
// rebuild: once mutations since the last full build exceed this
// fraction of the station count at that build, the next Apply
// rebuilds every derived structure from scratch.
const DefaultRebuildFraction = dynamic.DefaultRebuildFraction

// DynamicOption customizes dynamic-engine construction.
type DynamicOption = dynamic.Option

// WithRebuildFraction sets the churn threshold of the amortized
// rebuild (default DefaultRebuildFraction). Zero rebuilds on every
// Apply; +Inf never amortizes.
func WithRebuildFraction(f float64) DynamicOption { return dynamic.WithRebuildFraction(f) }

// NewDynamicNetwork wraps net in a dynamic engine at epoch 1.
func NewDynamicNetwork(net *Network, opts ...DynamicOption) (*DynamicNetwork, error) {
	return dynamic.New(net, opts...)
}

// DynamicResolver is the epoch-aware Resolver over a live dynamic
// network: every Resolve, ResolveBatch and ResolveStream call pins
// the epoch current when the call starts and answers entirely from
// it. Use Pin to hold one epoch across several calls.
type DynamicResolver = resolve.DynamicResolver

// SnapshotResolver answers every query from one pinned epoch snapshot
// of a dynamic network; construction is O(1). NewResolver builds one
// for the voronoi kind, over the first epoch of a fresh dynamic
// engine.
type SnapshotResolver = resolve.SnapshotResolver

// ResolverDynamic identifies the dynamic epoch-snapshot backend.
// Unlike the static four it cannot be built from a bare *Network —
// use NewDynamicResolver or NewSnapshotResolver.
const ResolverDynamic = resolve.KindDynamic

// NewDynamicResolver wraps a dynamic engine in the epoch-aware
// Resolver (WithWorkers applies).
func NewDynamicResolver(dyn *DynamicNetwork, opts ...ResolverOption) (*DynamicResolver, error) {
	return resolve.NewDynamic(dyn, opts...)
}

// NewSnapshotResolver wraps one epoch snapshot (WithWorkers applies).
func NewSnapshotResolver(snap *DynamicSnapshot, opts ...ResolverOption) (*SnapshotResolver, error) {
	return resolve.NewDynamicSnapshot(snap, opts...)
}

// Link is one sender-to-receiver transmission request of a scheduling
// instance (zero Power means the uniform default 1).
type Link = sched.Link

// Schedule partitions a scheduling instance's links into slots; every
// slot is feasible under the instance's reception model. Validate
// re-checks a schedule independently of however it was built.
type Schedule = sched.Schedule

// SchedulingProblem is the feasibility surface every scheduler builds
// on: a link count plus the slot-feasibility predicate. Both concrete
// problems additionally maintain incremental slot state (adding a
// link costs O(slot members) with a spatial fast-reject, not
// O(members²)) and keep the naive scan as a cross-checking oracle.
type SchedulingProblem = sched.Feasibility

// SchedulingSlot is live incremental slot state: CanAdd/Add/Remove
// maintain per-member interference so trial placements avoid the full
// quadratic recheck.
type SchedulingSlot = sched.Slot

// SINRScheduling schedules links under the physical SINR model.
type SINRScheduling = sched.SINRProblem

// ProtocolScheduling schedules links under the graph-based
// UDG/protocol model — the baseline the paper argues against.
type ProtocolScheduling = sched.ProtocolProblem

// SchedulerKind identifies a scheduling algorithm (greedy, lenclass,
// repair).
type SchedulerKind = sched.Kind

// The three schedulers.
const (
	SchedGreedy   = sched.KindGreedy
	SchedLenClass = sched.KindLenClass
	SchedRepair   = sched.KindRepair
)

// RepairStats reports what RepairSchedule did: links kept in place,
// displaced, dropped as stale, placed fresh, and improver moves.
type RepairStats = sched.RepairStats

// DefaultSchedImprovePasses is the improver pass budget used by the
// repair scheduler.
const DefaultSchedImprovePasses = sched.DefaultImprovePasses

// NewSINRScheduling builds a SINR scheduling problem over links
// (alpha defaults to 2; set the Alpha field for other exponents).
func NewSINRScheduling(links []Link, noise, beta float64) (*SINRScheduling, error) {
	return sched.NewSINRProblem(links, noise, beta)
}

// NewProtocolScheduling builds a protocol-model scheduling problem:
// a link is feasible in a slot iff it is no longer than connRadius
// and no other sender or receiver is within interfRadius.
func NewProtocolScheduling(links []Link, connRadius, interfRadius float64) (*ProtocolScheduling, error) {
	return sched.NewProtocolProblem(links, connRadius, interfRadius)
}

// BuildSchedule runs the named scheduler: greedy first-fit in the
// given order, the length-class scheduler (order ignored), or greedy
// plus the local-search improver. A nil order means identity.
func BuildSchedule(kind SchedulerKind, f SchedulingProblem, order []int) (*Schedule, error) {
	return sched.BuildSchedule(kind, f, order)
}

// ImproveSchedule runs the local-search improver in place: links are
// moved into earlier slots and emptied slots deleted until a full
// pass moves nothing or maxPasses is exhausted. It returns the number
// of moves made.
func ImproveSchedule(f SchedulingProblem, s *Schedule, maxPasses int) (int, error) {
	return sched.Improve(f, s, maxPasses)
}

// RepairSchedule heals a schedule after the link set changed instead
// of scheduling from scratch: surviving assignments are kept where
// still feasible, stale links dropped, and displaced plus new links
// re-placed (then improved for improvePasses > 0). The input schedule
// is not modified.
func RepairSchedule(f SchedulingProblem, s *Schedule, improvePasses int) (*Schedule, RepairStats, error) {
	return sched.Repair(f, s, improvePasses)
}

// ByLength orders link indices by link length (ascending or
// descending), ties toward the lower index — shortest-first is the
// classic greedy order.
func ByLength(links []Link, ascending bool) []int { return sched.ByLength(links, ascending) }

// DeriveLinks derives one deterministic link per station: receivers
// are placed pseudo-randomly (a pure function of the station's
// coordinates) at distance [0.5, 1.5)·scale. It is how the serving
// layer turns a registered network into a scheduling instance, and
// how a client re-derives the same instance to validate served
// schedules; a nil powers slice means uniform power 1.
func DeriveLinks(stations []Point, powers []float64, scale float64) []Link {
	return sched.DeriveLinks(stations, powers, scale)
}

// ParseSchedulerKind maps a wire/flag name ("greedy", "lenclass",
// "repair"; "" means greedy) to its SchedulerKind.
func ParseSchedulerKind(s string) (SchedulerKind, error) { return sched.ParseKind(s) }

// SchedulerKinds lists every scheduler, in kind order.
func SchedulerKinds() []SchedulerKind { return sched.Kinds() }

// Diagram is a measured SINR diagram: per-zone polygonal geometry and
// the communication graph induced by concurrent transmission.
type Diagram = diagram.Diagram

// ZoneInfo is the measured geometry of one reception zone.
type ZoneInfo = diagram.ZoneInfo

// BuildDiagram measures every reception zone of the network with the
// given boundary sample count and radial precision.
func BuildDiagram(net *Network, samples int, tol float64) (*Diagram, error) {
	return diagram.Build(net, samples, tol)
}
