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
//     conservative zone cover box never change, so an arrival or
//     departure touches exactly the grid cells of its own box
//     (shardindex.Index, the grid type the Theorem 3 locator also
//     uses, patched copy-on-write per delta by Update);
//   - the kd-tree is not rebuilt: the base tree of the last full build
//     answers through an index-remapping filter (kdtree.NearestMapped)
//     and stations admitted since are scanned as a small overlay.
//
// Once cumulative churn exceeds a threshold fraction of the station
// count at the last full build (WithRebuildFraction), the next Apply
// rebuilds everything from scratch and resets the accounting — the
// classic static-dynamic amortization, keeping the overlay small and
// query cost bounded. ApplyStats on every snapshot says which path ran.
//
// Snapshots answer queries exactly (Snapshot.Locate / HeardBy): one
// grid lookup certifies most of the plane H-, and for beta > 1 the
// Observation 2.2 single-candidate reduction plus a single SINR check
// settles covered points — the nearest station under uniform power,
// the strongest-signal station (core.Network.Strongest) under
// per-station powers. Only beta <= 1 networks, where several stations
// may be heard, take the exact scan. Answers equal a from-scratch
// build on the same station set point-for-point — the property tests
// pin this against core.BuildLocator with and without its spatial
// index, and against Network.HeardBy.
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
