package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// benchNet builds a constant-density network (the E18/E19 serving
// regime: box side grows with sqrt(n)). sigma = 0 gives uniform power;
// sigma > 0 draws log-normal station powers of that spread, clamped to
// [1/8, 8] (the churn-power regime of the repository benchmark).
func benchNet(b *testing.B, n int, sigma float64) (*core.Network, geom.Box) {
	b.Helper()
	side := 3 * math.Sqrt(float64(n))
	box := geom.NewBox(geom.Pt(-side/2, -side/2), geom.Pt(side/2, side/2))
	gen := workload.NewGenerator(int64(9000 * n))
	pts, err := gen.UniformSeparated(n, box, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	var opts []core.Option
	if sigma > 0 {
		rng := rand.New(rand.NewSource(int64(n)))
		powers := make([]float64, n)
		for i := range powers {
			powers[i] = math.Min(8, math.Max(0.125, math.Exp(sigma*rng.NormFloat64())))
		}
		opts = append(opts, core.WithPowers(powers))
	}
	net, err := core.NewNetwork(pts, 0.01, 3, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return net, box
}

// BenchmarkDynamicApply measures one single-station incremental delta
// (the churn hot path): an arrival and a departure alternate so the
// station count stays fixed. The rebuild threshold is disabled so the
// measurement is purely the incremental path.
func BenchmarkDynamicApply(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, box := benchNet(b, n, 0)
			dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(1)
			arrivals := gen.QueryPoints(b.N+1, box)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					_, err = dyn.Apply(Delta{Add: []Station{{Pos: arrivals[i/2]}}})
				} else {
					_, err = dyn.Apply(Delta{Remove: []int{n}})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicRebuild measures the from-scratch baseline an
// incremental Apply replaces: building the whole engine (network copy,
// kd-tree, cover boxes, grid) on an unchanged station set.
func BenchmarkDynamicRebuild(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, _ := benchNet(b, n, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicLocate measures the epoch-snapshot query hot path on
// a post-churn snapshot (base tree + overlay extras + patched grid):
// the nearest-station path on uniform networks, and on the lognormal
// leg (log-normal powers, sigma 0.5, plus power-walk deltas) the
// strongest-station path. The farfield leg queries a rebuild-path
// snapshot of 10^4 stations, which carries the certified far-field
// check, at Theorem 4.1 annulus points (the dense-boundary workload's).
// It must report 0 allocs/op — the CI bench gate enforces it.
func BenchmarkDynamicLocate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		n     int
		sigma float64
	}{
		{"n=64", 64, 0},
		{"n=1024", 1024, 0},
		{"lognormal/n=512", 512, 0.5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := bc.n
			net, box := benchNet(b, n, bc.sigma)
			dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(2)
			pPower := 0.0
			if bc.sigma > 0 {
				pPower = 1
			}
			for _, ev := range gen.ChurnTrace(n, n/16+4, box, 1, 1, pPower, bc.sigma) {
				var d Delta
				switch ev.Kind {
				case workload.ChurnArrive:
					d = Delta{Add: []Station{{Pos: ev.Pos, Power: ev.Power}}}
				case workload.ChurnDepart:
					d = Delta{Remove: []int{ev.Station}}
				case workload.ChurnPower:
					d = Delta{SetPower: []PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
				}
				if _, err := dyn.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
			snap := dyn.Snapshot()
			pts := gen.QueryPoints(4096, box)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Locate(pts[i%len(pts)])
			}
		})
	}
	b.Run("farfield/n=10000", func(b *testing.B) {
		net, _ := benchNet(b, 10000, 0)
		dyn, err := New(net)
		if err != nil {
			b.Fatal(err)
		}
		snap := dyn.Snapshot()
		if snap.far == nil {
			b.Fatal("rebuild-path snapshot of 10^4 stations without a far-field check")
		}
		rng := rand.New(rand.NewSource(7))
		pts := make([]geom.Point, 4096)
		for k := range pts {
			i := rng.Intn(net.NumStations())
			zb, err := net.TheoremBounds(i)
			if err != nil {
				b.Fatal(err)
			}
			r := zb.DeltaLower + rng.Float64()*(math.Min(zb.DeltaUpper, zb.Kappa/2)-zb.DeltaLower)
			pts[k] = geom.PolarPoint(net.Station(i), r, 2*math.Pi*rng.Float64())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap.Locate(pts[i%len(pts)])
		}
	})
}
