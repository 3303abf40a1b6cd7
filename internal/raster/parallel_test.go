package raster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// threeStationNet builds a network whose zones, gaps and uncertainty
// rings all show up inside the test box.
func threeStationNet(t *testing.T) *core.Network {
	t.Helper()
	n, err := core.NewUniform(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0.5), geom.Pt(-1.5, 1)}, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRenderWorkerDeterminism renders the same scene at several worker
// counts and demands identical pixels — rows are independent, so the
// shard boundaries must never show.
func TestRenderWorkerDeterminism(t *testing.T) {
	n := threeStationNet(t)
	box := geom.NewBox(geom.Pt(-4, -4), geom.Pt(4, 4))
	want, err := RenderOpts(n, box, 64, 48, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 3, 16, 100} {
		got, err := RenderOpts(n, box, 64, 48, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Pixels {
			if got.Pixels[i] != want.Pixels[i] {
				t.Fatalf("workers=%d: pixel %d diverged (%d vs %d)", w, i, got.Pixels[i], want.Pixels[i])
			}
		}
	}
}

// TestRenderViaLocator rasterizes through the Theorem 3 structure —
// the service-style figure path — and checks it reproduces the
// ground-truth reception map exactly: LocateExact resolves every
// uncertainty-ring pixel with one direct SINR evaluation.
func TestRenderViaLocator(t *testing.T) {
	n := threeStationNet(t)
	loc, err := n.BuildLocator(0.3)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.NewBox(geom.Pt(-4, -4), geom.Pt(4, 4))
	truth, err := Render(n, box, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Render(loc, box, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Stations) != n.NumStations() {
		t.Fatalf("locator render lost station overlay: %d stations", len(fast.Stations))
	}
	for i := range truth.Pixels {
		if truth.Pixels[i] != fast.Pixels[i] {
			t.Fatalf("pixel %d: network says %d, locator says %d", i, truth.Pixels[i], fast.Pixels[i])
		}
	}
}
