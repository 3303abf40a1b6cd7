// Package exp is the experiment harness of the reproduction: one
// entry per figure and theorem of the paper, each regenerating the
// corresponding artifact (reception outcomes, convexity certificates,
// fatness measurements, point-location structures and timings) and
// emitting a formatted table recording paper-claim versus measured
// outcome. cmd/sinrbench runs every experiment and prints the tables.
//
// Map to the paper: E1-E4 regenerate Figures 1-5; E5/E6/E7 validate
// Theorems 1/2/3; E8 measures the query-time scaling of the paper's
// point-location discussion; E9-E11 cover Observation 2.2, the
// Section 3.2 Sturm analysis and the Section 5 grid sizing; E12-E15
// probe beyond the theorems (general alpha, non-uniform power,
// scheduling, communication graphs); E16 validates the concurrency
// layer (parallel builds and batch queries answer identically to the
// serial paths).
package exp
