package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/kdtree"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shardindex"
)

// coverer is the grid fast exit of the served path: the locator's
// shardindex.Index over QDS cover boxes, or the dynamic snapshot's
// shardindex.DynIndex over noise-limited cover boxes.
type coverer interface {
	Covers(x, y float64) bool
}

// noiseBoxes are the cover boxes the dynamic engine grids: reception
// needs E >= beta*N, so station i's zone lies within
// (psi_i/(beta*N))^(1/alpha) of it whatever the other stations do.
func noiseBoxes(net *core.Network) ([]shardindex.Box, []int32) {
	boxes := make([]shardindex.Box, net.NumStations())
	live := make([]int32, net.NumStations())
	for i := range boxes {
		p := net.Station(i)
		r := math.Pow(net.Power(i)/(net.Beta()*net.Noise()), 1/net.Alpha())
		boxes[i] = shardindex.Box{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
		live[i] = int32(i)
	}
	return boxes, live
}

// servedIndex returns the grid the served path consults first for the
// generation net, building it if the locator does not already carry one.
func servedIndex(net *core.Network, loc *resolve.LocatorResolver) coverer {
	if loc != nil {
		return loc.Locator().SpatialIndex()
	}
	return shardindex.BuildDyn(noiseBoxes(net))
}

// properties are the workload's measured input properties, printed by
// every run so later claims can cite the share they depend on.
type properties struct {
	heardFrac     float64 // served answers with a heard station
	fastExitFrac  float64 // query points the served grid dismisses
	uncertainFrac float64 // locator only: points Locate leaves in H?
	deltas        [3]int  // sent deltas by kind: arrive, depart, power
	finalN        int
}

func measureProperties(s shape, in *inputs, w *window, loc *resolve.LocatorResolver) properties {
	var pr properties
	heard, total := 0, 0
	for _, b := range w.batches {
		for _, a := range b.answers {
			if a >= 0 {
				heard++
			}
		}
		total += len(b.answers)
	}
	pr.heardFrac = float64(heard) / float64(max(total, 1))
	ix := servedIndex(in.net, loc)
	exits, uncertain, pts := 0, 0, 0
	for _, body := range in.points {
		for _, p := range body {
			if !ix.Covers(p.X, p.Y) {
				exits++
			}
			if loc != nil && loc.Locator().Locate(p).Kind == core.Uncertain {
				uncertain++
			}
			pts++
		}
	}
	pr.fastExitFrac = float64(exits) / float64(pts)
	pr.uncertainFrac = float64(uncertain) / float64(pts)
	for _, p := range w.patches {
		pr.deltas[in.events[p.event].Kind]++
	}
	pr.finalN = s.n
	if len(w.patches) > 0 {
		pr.finalN = w.patches[len(w.patches)-1].stations
	}
	return pr
}

// replaySample is how many traced batches the traced run replays
// through the layers; heardbyBudget caps the time spent on the O(n^2)
// HeardBy scan (about 0.6 s per point at n = 10^4); buildRepeats is how
// often each one-off build is timed.
const (
	replaySample  = 48
	heardbyBudget = 500 * time.Millisecond
	buildRepeats  = 5
)

// layers replays the inputs of sampled traced requests through each
// layer's public functions after the timed window, recording every call
// as a child span of the request's client span.
type layers struct {
	ctx  context.Context
	s    shape
	in   *inputs
	w    *window
	rec  *recorder
	loc  *resolve.LocatorResolver
	pick map[int]bool

	heardby   time.Duration
	prev      *schedRec
	prevLinks []sched.Link
	buf       bytes.Buffer
	sink      int
}

func newLayers(ctx context.Context, s shape, in *inputs, w *window, rec *recorder, loc *resolve.LocatorResolver, seed int64) *layers {
	l := &layers{ctx: ctx, s: s, in: in, w: w, rec: rec, loc: loc, pick: make(map[int]bool)}
	var traced []int
	for i, b := range w.batches {
		if b.span != 0 {
			traced = append(traced, i)
		}
	}
	rng := rand.New(rand.NewSource(seed*131 + 3))
	rng.Shuffle(len(traced), func(a, b int) { traced[a], traced[b] = traced[b], traced[a] })
	for _, i := range traced[:min(replaySample, len(traced))] {
		l.pick[i] = true
	}
	return l
}

// builds times the workload's one-off construction calls on the
// registered network.
func (l *layers) builds(seed int64) error {
	net := l.in.net
	for r := 0; r < buildRepeats; r++ {
		sp := l.rec.open("dynamic.new", 0, 0)
		if _, err := dynamic.New(net); err != nil {
			return err
		}
		l.rec.close(sp, 1)
	}
	if l.loc == nil {
		boxes, live := noiseBoxes(net)
		for r := 0; r < buildRepeats; r++ {
			sp := l.rec.open("shardindex.build", 0, 0)
			shardindex.BuildDyn(boxes, live)
			l.rec.close(sp, 1)
		}
		return nil
	}
	boxes := make([]shardindex.Box, net.NumStations())
	for i := range boxes {
		b := l.loc.Locator().QDSFor(i).CoverBox()
		boxes[i] = shardindex.Box{MinX: b.Min.X, MinY: b.Min.Y, MaxX: b.Max.X, MaxY: b.Max.Y}
	}
	for r := 0; r < buildRepeats; r++ {
		sp := l.rec.open("shardindex.build", 0, 0)
		shardindex.Build(boxes)
		l.rec.close(sp, 1)
	}
	rng := rand.New(rand.NewSource(seed*137 + 5))
	for r := 0; r < 8; r++ {
		sp := l.rec.open("core.qds_build", 0, 0)
		if _, err := net.BuildQDS(rng.Intn(net.NumStations()), l.s.eps); err != nil {
			return err
		}
		l.rec.close(sp, 1)
	}
	return nil
}

// visit is the per-generation hook of the correctness gate.
func (l *layers) visit(v uint64, snap *dynamic.Snapshot, batches []int, scheds []*schedRec) error {
	net := snap.Network()
	for _, r := range scheds {
		if err := l.repair(net, r); err != nil {
			return err
		}
	}
	var (
		res  resolve.Resolver
		tree *kdtree.Tree
		ix   coverer
	)
	for _, bi := range batches {
		if !l.pick[bi] {
			continue
		}
		if res == nil {
			if l.loc != nil {
				res = l.loc
			} else {
				sr, err := resolve.NewDynamicSnapshot(snap)
				if err != nil {
					return err
				}
				res = sr
			}
			tree = kdtree.New(net.Stations())
			ix = servedIndex(net, l.loc)
		}
		if err := l.replay(bi, net, snap, res, tree, ix); err != nil {
			return err
		}
	}
	return nil
}

// replay runs one request's inputs through every layer, one span per
// call; per-point layers get one span per batch covering all points.
func (l *layers) replay(bi int, net *core.Network, snap *dynamic.Snapshot, res resolve.Resolver, tree *kdtree.Tree, ix coverer) error {
	b := &l.w.batches[bi]
	pts := l.in.points[b.body]
	body := l.in.bodies[b.body]
	id := b.span
	rec := l.rec

	sp := rec.open("serve.decode", id, id)
	var req serve.LocateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	rec.close(sp, 1)

	dst := make([]core.Location, len(pts))
	sp = rec.open("resolve.batch", id, id)
	if err := res.ResolveBatch(l.ctx, pts, dst); err != nil {
		return err
	}
	rec.close(sp, 1)

	resp := serve.LocateResponse{Network: netName, Version: b.version, Resolver: l.s.resolver, Eps: l.s.eps,
		Results: make([]serve.LocateResult, len(dst))}
	for k, a := range dst {
		resp.Results[k] = serve.LocateResult{Kind: core.NoReception.String(), Station: serve.NoStationHeard}
		if a.Kind == core.Reception {
			resp.Results[k] = serve.LocateResult{Kind: a.Kind.String(), Station: a.Station}
		}
	}
	l.buf.Reset()
	sp = rec.open("serve.encode", id, id)
	if err := json.NewEncoder(&l.buf).Encode(&resp); err != nil {
		return err
	}
	rec.close(sp, 1)

	near := make([]int, len(pts))
	sp = rec.open("kdtree.nearest", id, id)
	for k, p := range pts {
		near[k], _, _ = tree.Nearest(p)
	}
	rec.close(sp, len(pts))

	heard := 0
	sp = rec.open("core.sinr", id, id)
	for k, p := range pts {
		if net.Heard(near[k], p) {
			heard++
		}
	}
	rec.close(sp, len(pts))

	sp = rec.open("dynamic.locate", id, id)
	for _, p := range pts {
		heard += int(snap.Locate(p).Kind)
	}
	rec.close(sp, len(pts))

	sp = rec.open("shardindex.covers", id, id)
	for _, p := range pts {
		if ix.Covers(p.X, p.Y) {
			heard++
		}
	}
	rec.close(sp, len(pts))

	if l.loc != nil {
		lc := l.loc.Locator()
		sp = rec.open("core.locate", id, id)
		for _, p := range pts {
			heard += int(lc.Locate(p).Kind)
		}
		rec.close(sp, len(pts))
	}

	if l.heardby < heardbyBudget {
		t0 := time.Now()
		k := 0
		sp = rec.open("core.heardby", id, id)
		for ; k < len(pts) && time.Since(t0) < heardbyBudget/replaySample; k++ {
			if _, ok := net.HeardBy(pts[k]); ok {
				heard++
			}
		}
		rec.close(sp, k)
		l.heardby += time.Since(t0)
	}
	l.sink += heard
	return nil
}

// repair times sched.Repair the way the server runs it for a schedule
// request after deltas: the previous schedule's assignments carried
// over by sender identity onto this generation's links, then repaired.
func (l *layers) repair(net *core.Network, r *schedRec) error {
	links := derivedLinks(net, r.resp.LinkLen)
	if l.prev != nil {
		f, err := sinrProblem(net, links)
		if err != nil {
			return err
		}
		tentative := carryOver(l.prev.resp.Slots, l.prevLinks, links)
		sp := l.rec.open("sched.repair", r.span, r.span)
		if _, _, err := sched.Repair(f, tentative, 1); err != nil {
			return err
		}
		l.rec.close(sp, 1)
	}
	l.prev, l.prevLinks = r, links
	return nil
}

// carryOver maps slot assignments over prevLinks onto links by sender
// identity (position and power), as the server's repair path does.
func carryOver(slots [][]int, prevLinks, links []sched.Link) *sched.Schedule {
	type ident struct{ x, y, p float64 }
	slotOf := make(map[ident]int, len(prevLinks))
	for si, slot := range slots {
		for _, li := range slot {
			l := prevLinks[li]
			slotOf[ident{l.Sender.X, l.Sender.Y, l.Power}] = si
		}
	}
	out := &sched.Schedule{Slots: make([][]int, len(slots))}
	for j, l := range links {
		if si, ok := slotOf[ident{l.Sender.X, l.Sender.Y, l.Power}]; ok {
			out.Slots[si] = append(out.Slots[si], j)
		}
	}
	return out
}

// layerNs returns the median per-operation self time of each span name.
func layerNs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	per := make(map[string][]float64)
	for _, s := range spans {
		if s.ops > 0 {
			per[s.name] = append(per[s.name], float64(self[s.id])/float64(s.ops))
		}
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}
