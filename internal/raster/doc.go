// Package raster renders reception maps — the "numerically generated"
// SINR and UDG diagrams of the paper's Figures 1-5 — by sampling a
// reception model over a pixel grid. It supports ASCII art for
// terminals, binary PPM images for files, per-station area estimates,
// and pixelwise diffs between two models (the UDG-vs-SINR comparisons
// of Figures 2-4).
//
// Rendering shards pixel rows over a worker pool (Options.Workers) and
// asks the model one pixel center at a time, so regenerating the
// paper's figures scales with the available cores while producing
// identical pixels at every worker count.
package raster
