package main

import "testing"

// TestRunAgrees drives the whole command at a small size: the locator
// build, the single-point, batch, Voronoi and naive passes. run
// returns an error when the batch diverges from single-point Locate or
// when LocateExact disagrees with the naive scan, so a nil error is
// the agreement check.
func TestRunAgrees(t *testing.T) {
	if err := run(12, 0.3, 2000, 1, 3, 0.01, 2); err != nil {
		t.Fatal(err)
	}
}
