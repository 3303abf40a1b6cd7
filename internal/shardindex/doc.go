// Package shardindex is the sharded spatial index of the query hot
// path: a uniform grid over axis-aligned boxes (one per station's
// reception-zone cover box) that maps a query point to the O(1)-ish
// candidate set of stations whose zones could contain it. Both exact
// engines start with it: the Theorem 3 locator grids its QDS cover
// boxes (Build), each dynamic epoch its dominance boxes in the frame of
// its noise-limited ones (BuildFramed).
//
// The index answers two questions, both allocation-free:
//
//   - Candidates(x, y): which boxes' grid cell does p fall in? The
//     returned id slice is a view into the index's storage — a
//     superset filtered by the caller (or by Covers) with exact box
//     tests.
//   - Covers(x, y): does any box actually contain p? A false answer
//     lets a point-location query return "no reception" without
//     touching the kd-tree or any per-station structure — the common
//     case for query traffic over the mostly-empty plane.
//
// The grid pitch is derived from the average box size and the cell
// count is clamped to O(#boxes), so the index is O(n) memory and O(n)
// build time regardless of how skewed the box geometry is; BuildDyn
// and BuildFramed only pad the extent so near-future arrivals fit.
// Each cell owns its candidate slice, so Update copies only the cells
// a delta touches.
// An index is immutable once built and safe for concurrent use; a
// Locator embeds one per build and a dynamic snapshot one per epoch,
// so hot-swapping either (internal/serve) swaps the index atomically
// with the rest of the snapshot.
package shardindex
