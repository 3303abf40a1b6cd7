// Package dynamic is the dynamic-network engine: it maintains a
// station set under a log of single- or multi-station mutations
// (arrivals, departures, power updates) and materializes each state as
// an immutable epoch Snapshot, without paying full-rebuild cost per
// mutation on the hot path.
//
// The paper's machinery (and the rest of this repository before this
// package) assumes a static station set: every change used to mean a
// fresh core.NewNetwork plus a fresh locator and spatial index. Under
// churn workloads — stations joining, leaving and re-tuning power
// while queries are in flight — that is O(full rebuild) per event.
// Here a mutation instead flows through Network.Apply, which patches
// the derived structures copy-on-write:
//
//   - the canonical station/power slices are copied (O(n) memcpy, the
//     floor any index-compacting representation pays);
//   - each station owns a stable slot whose location, power and
//     certified zone cover box never change, so a delta touches only
//     the grid cells of the boxes it retires and admits
//     (shardindex.Index, the grid type the Theorem 3 locator also
//     uses, patched copy-on-write per delta by Update).
//
// The cover boxes. The noise box — the square of half-side
// (psi/(beta*N))^(1/alpha) around a station, which reception needs
// whatever the others do — frames the grid. For beta > 1 reception
// also needs E_i >= beta*E_j for every other station j, an Apollonius
// disc around s_i whenever beta*psi_j > psi_i (Observation 2.2: only
// the strongest station can be heard). Each station's box is its
// noise box cut by the discs of the stations within three quarters of
// its noise radius, under a proven rounding margin, which shrinks a
// box from about 5.8 to about 1 station spacing on the E18 geometry.
// Each box records, per side, which station's disc bounds it. An
// arrival or a power increase only shrinks other zones, so it derives
// just its own box; a departure or a power drop re-derives the boxes
// it bounds, copy-on-write like a repower. A station keeps its
// identity (the slot it arrived with) through its own re-derivations,
// so they never cascade.
//
// Once cumulative churn exceeds a threshold fraction of the station
// count at the last full build (WithRebuildFraction), the next Apply
// rebuilds everything from scratch and resets the accounting — the
// classic static-dynamic amortization, keeping the slot table small.
// ApplyStats on every snapshot says which path ran.
//
// Snapshots answer queries exactly (Snapshot.Locate / HeardBy). For
// beta > 1 one grid lookup yields the cover boxes holding the point:
// no hit certifies H- (about half of uniform traffic on the E18
// geometry), and otherwise the strongest hit is the one candidate of
// the Observation 2.2 reduction and a single SINR check settles it.
// Noiseless networks have no grid and take core.Network.Strongest, one
// O(n) pass, as the candidate. Only beta <= 1 networks, where several
// stations may be heard, take the noise boxes' H- exit and then the
// exact scan. Answers equal a from-scratch build on the same station
// set point-for-point — the property tests pin this against
// core.BuildLocator with and without its spatial index, and against
// Network.HeardBy.
//
// The SINR check. On an epoch built by the rebuild path with at least
// 1024 stations, the candidate test goes through core.FarField: a
// kd-tree whose nodes carry a bounding box and a total power. It sums
// near leaves exactly, bounds the interference of far nodes by an
// interval, and decides only when e_i clears beta times that interval
// (plus noise) by more than a proven float error bound; otherwise it
// falls back to the exact Network.Heard. So its answers are Heard's on
// every point, in about a sixth of the exact sum's time at 10^4
// stations. Incremental epochs carry no tree and use Heard, whose
// alpha = 2 sum is an inlined loop bit for bit equal to the per-term
// Energy sum; maintaining the tree copy-on-write per epoch is left for
// later. Networks under 1024 stations build no tree.
//
// The epoch-pinning query surface (Resolver interface, batch/stream)
// lives in internal/resolve (DynamicResolver); the serving layer's
// PATCH /v1/networks/{name} mutation API in internal/serve.
package dynamic
