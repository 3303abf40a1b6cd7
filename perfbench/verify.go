package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/sched"
)

// verify is the correctness gate. It rebuilds every generation the
// server answered from with a local dynamic mirror fed the same deltas,
// then checks each served answer against that generation's exact
// reception model, each PATCH against the mirror, and each schedule with
// Schedule.Validate over the generation's derived links. For uniform
// networks with beta > 1 every answer is checked with Network.Heard on
// the linearly scanned nearest station (Observation 2.2: only the
// nearest station can be heard); otherwise a seeded sample of s.sample
// points per batch is checked with the O(n^2) Network.HeardBy.
//
// first is the schedule computed before the window (nil without a
// writer). Each mirror Apply is recorded as a dynamic.apply span under
// its PATCH's span (rec may be nil). visit, when non-nil, is called once
// per generation after it is verified; the traced run replays layer
// calls from there.
func verify(s shape, in *inputs, w *window, first *schedRec, seed int64, rec *recorder,
	visit func(v uint64, snap *dynamic.Snapshot, batches []int, scheds []*schedRec) error) (int, error) {
	if w.bad != nil {
		return 0, w.bad
	}
	last := uint64(len(w.patches)) + 1
	for j, p := range w.patches {
		if p.event != j || p.version != uint64(j)+2 {
			return 0, fmt.Errorf("PATCH %d answered version %d, want %d", p.event, p.version, j+2)
		}
	}
	byVer := make(map[uint64][]int)
	for i, b := range w.batches {
		if b.version < 1 || b.version > last {
			return 0, fmt.Errorf("batch %d answered from version %d, which no delta produced", i, b.version)
		}
		byVer[b.version] = append(byVer[b.version], i)
	}
	schedAt := make(map[uint64][]*schedRec)
	if first != nil {
		if first.resp.Version != 1 || first.resp.Path != "computed" {
			return 0, fmt.Errorf("first schedule: version %d path %q, want 1 and computed", first.resp.Version, first.resp.Path)
		}
		schedAt[1] = append(schedAt[1], first)
	}
	for i := range w.scheds {
		r := &w.scheds[i]
		if r.resp.Path != "repaired" {
			return 0, fmt.Errorf("schedule %d after a delta took path %q, want repaired", i, r.resp.Path)
		}
		if r.resp.Version < 1 || r.resp.Version > last {
			return 0, fmt.Errorf("schedule %d answered from version %d, which no delta produced", i, r.resp.Version)
		}
		schedAt[r.resp.Version] = append(schedAt[r.resp.Version], r)
	}

	mirror, err := dynamic.New(in.net)
	if err != nil {
		return 0, err
	}
	snap := mirror.Snapshot()
	rng := rand.New(rand.NewSource(seed*31 + 7))
	var bad []string
	checked := 0
	for v := uint64(1); v <= last; v++ {
		if v > 1 {
			p := w.patches[v-2]
			sp := rec.open("dynamic.apply", p.span, p.span)
			if snap, err = mirror.Apply(in.deltas[p.event]); err != nil {
				return 0, fmt.Errorf("mirror rejects delta %d: %v", p.event, err)
			}
			rec.close(sp, 1)
			if snap.NumStations() != p.stations || snap.ApplyStats().Path.String() != p.path {
				return 0, fmt.Errorf("PATCH %d: served %d stations via %s, mirror has %d via %s",
					p.event, p.stations, p.path, snap.NumStations(), snap.ApplyStats().Path)
			}
		}
		net := snap.Network()
		exact := net.IsUniform() && net.Beta() > 1
		truth := make(map[int][]int32) // per body, at this generation
		for _, bi := range byVer[v] {
			b := &w.batches[bi]
			pts := in.points[b.body]
			if exact {
				want, ok := truth[b.body]
				if !ok {
					want = make([]int32, len(pts))
					for k, p := range pts {
						want[k] = nearestHeard(net, p)
					}
					truth[b.body] = want
				}
				for k := range pts {
					if b.answers[k] != want[k] && len(bad) < 5 {
						bad = append(bad, fmt.Sprintf("version %d point %v: served %d, oracle %d", v, pts[k], b.answers[k], want[k]))
					}
				}
				checked += len(pts)
				if len(bad) > 0 {
					return checked, gateError(bad)
				}
				continue
			}
			sample := len(pts)
			if s.sample > 0 {
				sample = min(s.sample, sample)
			}
			for _, k := range rng.Perm(len(pts))[:sample] {
				want := int32(-1)
				if i, ok := net.HeardBy(pts[k]); ok {
					want = int32(i)
				}
				checked++
				if b.answers[k] != want {
					bad = append(bad, fmt.Sprintf("version %d point %v: served %d, oracle %d", v, pts[k], b.answers[k], want))
					return checked, gateError(bad)
				}
			}
		}
		for _, r := range schedAt[v] {
			if err := validateSchedule(snap, r); err != nil {
				return checked, err
			}
		}
		if visit != nil {
			if err := visit(v, snap, byVer[v], schedAt[v]); err != nil {
				return checked, err
			}
		}
	}
	return checked, nil
}

func gateError(bad []string) error {
	return fmt.Errorf("served answers disagree with the exact oracle:\n  %s", strings.Join(bad, "\n  "))
}

// nearestHeard is the exact answer on a uniform network with beta > 1:
// the linearly scanned nearest station (lowest index on ties) if it is
// heard, else none.
func nearestHeard(net *core.Network, p geom.Point) int32 {
	best, bestD2 := -1, math.Inf(1)
	for i := 0; i < net.NumStations(); i++ {
		if d2 := geom.Dist2(net.Station(i), p); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	if best >= 0 && net.Heard(best, p) {
		return int32(best)
	}
	return -1
}

// derivedLinks is the link set the server schedules for a generation.
func derivedLinks(net *core.Network, linkLen float64) []sched.Link {
	powers := make([]float64, net.NumStations())
	for i := range powers {
		powers[i] = net.Power(i)
	}
	return sched.DeriveLinks(net.Stations(), powers, linkLen)
}

func sinrProblem(net *core.Network, links []sched.Link) (*sched.SINRProblem, error) {
	p, err := sched.NewSINRProblem(links, net.Noise(), net.Beta())
	if err != nil {
		return nil, err
	}
	p.Alpha = net.Alpha()
	return p, nil
}

func validateSchedule(snap *dynamic.Snapshot, r *schedRec) error {
	out := r.resp
	if out.Scheduler != "greedy" || out.Model != "sinr" {
		return fmt.Errorf("schedule at version %d: scheduler %q model %q, want greedy sinr", out.Version, out.Scheduler, out.Model)
	}
	links := derivedLinks(snap.Network(), out.LinkLen)
	if out.NumLinks != len(links) {
		return fmt.Errorf("schedule at version %d covers %d links, the generation has %d", out.Version, out.NumLinks, len(links))
	}
	p, err := sinrProblem(snap.Network(), links)
	if err != nil {
		return err
	}
	if err := (&sched.Schedule{Slots: out.Slots}).Validate(p); err != nil {
		return fmt.Errorf("schedule at version %d is invalid: %v", out.Version, err)
	}
	return nil
}
