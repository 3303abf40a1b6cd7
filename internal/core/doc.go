// Package core implements the paper's primary contribution: SINR
// diagrams of wireless networks and the algorithmic machinery built on
// them — reception zones and their boundary polynomials, convexity
// certification (Theorem 1), fatness bounds (Theorem 2, Theorem 4.1,
// Theorem 4.2), and the approximate point-location data structure of
// Theorem 3 (grid + Boundary Reconstruction Process + segment test +
// nearest-station pre-filter).
//
// Map to the paper (Avin, Emek, Kantor, Lotker, Peleg, Roditty,
// "SINR Diagrams: Towards Algorithmically Usable SINR Models of
// Wireless Networks", PODC 2009):
//
//   - network.go — Section 2.2: the network <S, psi, N, beta>, energy,
//     interference, SINR and the reception predicate; Lemma 2.3
//     similarity transforms.
//   - zone.go, bounds.go — Sections 2.2 and 4: reception zones H_i,
//     the delta/Delta radius bounds of Theorem 4.1 and the fatness
//     bound of Theorem 4.2.
//   - convexity.go — Theorem 1 / Section 3: Sturm-certified line-zone
//     crossing counts and midpoint convexity checks.
//   - merge.go — Lemma 3.10: merging two stations into one.
//   - linepoly.go — Section 3.2/5.1: the restricted boundary
//     polynomial of a zone along a line and its root isolation.
//   - grid.go — Section 5.1: the gamma-spaced grid and cell geometry.
//   - brp.go — Section 5.1: the Boundary Reconstruction Process that
//     traces a zone boundary cell to cell. Each sample is a radial
//     probe warm-started from a tol-wide bracket around the radius at
//     a nearby angle (Zone.radialBoundaryHinted in zone.go), which
//     usually costs two SINR evaluations.
//   - qds.go — Section 5.1: the per-zone structure classifying cells
//     T+/T-/T? with area(H?) <= eps * area(H). The T? ring, the 9-cells
//     of the visited cells, is merged column by column from the sorted
//     visited cells into a dense column table over one interval array,
//     so neither the build nor Classify touches a map.
//   - pointloc.go — Theorem 3: the combined locator (kd-tree
//     nearest-station pre-filter per Observation 2.2, then one QDS
//     cell lookup, O(log n) per query).
//   - parallel.go — a worker pool for the embarrassingly parallel
//     per-station builds (BuildLocatorOpts), whose result is identical
//     for every worker count. Batch and stream queries are not here:
//     internal/resolve shards them over any backend, this one
//     included.
package core
