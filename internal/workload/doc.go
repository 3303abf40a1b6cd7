// Package workload generates deterministic, seeded inputs for
// experiments and benchmarks: uniform and separated-uniform station
// deployments, query-point streams for the point-location engines
// (uniform, hotspot and random-waypoint mobility traffic), and
// station churn traces for the dynamic-network engine.
//
// Map to the paper: the figure scenarios of Sections 1-5 are drawn
// from these layouts; seeding makes every experiment, benchmark and
// concurrency determinism test reproducible run-to-run.
package workload
