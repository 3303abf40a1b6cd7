// Package resolve defines the one query interface of the repository:
// a Resolver answers "which station is heard at point p?" for a fixed
// network, in three shapes (single point, batch, ordered stream), and
// reports its own metadata through Stats.
//
// The paper's point is that several very different algorithms answer
// this same question: direct SINR evaluation (the ground truth, O(n^2)
// per query in the worst case), the Theorem 3 structure (O(log n) per query with an
// eps-area uncertainty ring), the Voronoi nearest-candidate check
// (Observation 2.2 plus one SINR evaluation), and the graph-based
// UDG/protocol model the paper argues against. This package gives each
// of them the same surface — ExactResolver, LocatorResolver,
// SnapshotResolver (the voronoi and dynamic kinds), UDGResolver — so
// serving paths, benchmarks and experiments can swap backends per
// request instead of per code path. New(KindVoronoi, net) answers from
// the first epoch snapshot of a dynamic engine over net, the one
// single-candidate engine the serving layer also uses. ResolveBatch and
// ResolveStream are the repository's only batch and stream query
// paths; the types underneath answer one point at a time.
//
// All resolvers are immutable once constructed and safe for concurrent
// use from any number of goroutines. Construction goes through
// functional options (WithWorkers, WithEpsilon, WithExactFallback,
// WithRadius, WithInterfRadius); the generic constructor New builds
// any backend from its Kind, which is what registry-style callers
// (internal/serve's resolver cache) use.
//
// # The no-station answer, once and for all
//
// Every Resolver reports "no station is heard at p" the same way: a
// core.Location with Kind core.NoReception. The Station field of a
// NoReception answer is meaningless — branch on Kind, never on the
// index. When an answer is flattened to a bare station index (batch
// wire formats, raster pixels), NoReception maps to the sentinel
// core.NoStationHeard (-1) and any index >= 0 is a heard station; the
// comma-ok APIs of the underlying models (Network.HeardBy and friends)
// express the same answer as (0, false). This paragraph is the single
// authoritative statement of that contract; per-method docs refer here.
//
// Exact resolvers (ExactResolver, SnapshotResolver, LocatorResolver
// with exact fallback, UDGResolver) never return core.Uncertain; only
// a LocatorResolver built with WithExactFallback(false) surfaces the
// Theorem 3 H? ring to its caller.
package resolve
