package serve

import (
	"math"
	"net/http"
	"time"

	"repro/internal/sched"
)

// Link scheduling over the serving stack: POST
// /v1/networks/{name}/schedule builds a schedule for the network's
// derived link set (sched.DeriveLinks over the served snapshot's
// stations, so server and clients agree on the links without shipping
// them). Schedules are cached per network incarnation and parameter
// set, across generations: after a PATCH delta the next request finds
// the superseded schedule and REPAIRS it through the improver — cost
// proportional to the delta — instead of recomputing from scratch.

// ScheduleRequest is the POST /v1/networks/{name}/schedule body.
// Scheduler is "greedy", "lenclass" or "repair" (empty means greedy);
// Model is "sinr" or "protocol" (empty means sinr); Order is "short",
// "long" or "id" (empty means short). LinkLen scales the derived link
// lengths (0 means 1). Beta and Noise override the network's
// registered values for the SINR model; ConnRadius and InterfRadius
// set the protocol model's radii (0 means 1.5x and 3x the link scale).
type ScheduleRequest struct {
	Scheduler    string  `json:"scheduler,omitempty"`
	Model        string  `json:"model,omitempty"`
	Order        string  `json:"order,omitempty"`
	LinkLen      float64 `json:"link_len,omitempty"`
	Beta         float64 `json:"beta,omitempty"`
	Noise        float64 `json:"noise,omitempty"`
	ConnRadius   float64 `json:"conn_radius,omitempty"`
	InterfRadius float64 `json:"interf_radius,omitempty"`
}

// ScheduleResponse is the schedule reply. Path says how the answer was
// produced: "computed" (fresh build), "repaired" (a superseded cached
// schedule reconciled with the new generation via sched.Repair) or
// "cached" (served verbatim from cache); Repair carries the repair
// stats on the repaired path. Version is the network generation the
// slots are valid for.
type ScheduleResponse struct {
	Network   string             `json:"network"`
	Version   uint64             `json:"version"`
	Scheduler string             `json:"scheduler"`
	Model     string             `json:"model"`
	Order     string             `json:"order"`
	LinkLen   float64            `json:"link_len"`
	NumLinks  int                `json:"num_links"`
	NumSlots  int                `json:"num_slots"`
	Path      string             `json:"path"`
	Repair    *sched.RepairStats `json:"repair,omitempty"`
	Slots     [][]int            `json:"slots"`
}

// schedKey is the request part of a cached schedule's key, which adds
// the network incarnation but no generation. All parameters are
// normalized (defaults resolved, model-irrelevant knobs zeroed) before
// the lookup, so requests differing only in an ignored knob share a slot.
type schedKey struct {
	kind    sched.Kind
	model   string
	order   string
	linkLen float64
	beta    float64
	noise   float64
	conn    float64
	interf  float64
}

// schedResult is one computed schedule plus what produced it. links is
// kept so a later repair can carry surviving assignments over to the
// next generation's link set.
type schedResult struct {
	version  uint64
	links    []sched.Link
	schedule *sched.Schedule
	path     string // "computed" or "repaired"
	repair   *sched.RepairStats
}

// finiteNonNeg rejects NaN/Inf/negative knobs before they can reach a
// cache key (a NaN map key never matches on lookup, leaking entries).
func finiteNonNeg(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// handleSchedule serves POST /v1/networks/{name}/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ScheduleRequest
	if !decodeBody(w, r, s.opt.MaxBodyBytes, &req) {
		return
	}
	entry, ok := s.entryFor(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}
	// Knobs the request omits inherit the network's declared schedule
	// policy (NetworkSpec.Schedule) before the server defaults apply.
	if snap := entry.snap.Load(); snap != nil && snap.spec != nil && snap.spec.Schedule != nil {
		pol := snap.spec.Schedule
		if req.Scheduler == "" {
			req.Scheduler = pol.Scheduler
		}
		if req.Model == "" {
			req.Model = pol.Model
		}
		if req.Order == "" {
			req.Order = pol.Order
		}
		if req.LinkLen == 0 {
			req.LinkLen = pol.LinkLen
		}
	}
	kind, err := sched.ParseKind(req.Scheduler)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	model := req.Model
	switch model {
	case "":
		model = "sinr"
	case "sinr", "protocol":
	default:
		writeError(w, http.StatusBadRequest, "unknown model %q (want sinr or protocol)", model)
		return
	}
	order := req.Order
	switch order {
	case "":
		order = "short"
	case "short", "long", "id":
	default:
		writeError(w, http.StatusBadRequest, "unknown order %q (want short, long or id)", order)
		return
	}
	linkLen := req.LinkLen
	if linkLen == 0 {
		linkLen = 1
	}
	if !(linkLen > 0) || math.IsInf(linkLen, 1) {
		writeError(w, http.StatusBadRequest, "link_len must be a positive finite number, got %g", req.LinkLen)
		return
	}
	if !finiteNonNeg(req.Beta) || !finiteNonNeg(req.Noise) ||
		!finiteNonNeg(req.ConnRadius) || !finiteNonNeg(req.InterfRadius) {
		writeError(w, http.StatusBadRequest, "beta, noise and radii must be non-negative finite numbers")
		return
	}
	key := schedKey{kind: kind, model: model, order: order, linkLen: linkLen}
	switch model {
	case "sinr":
		key.beta, key.noise = req.Beta, req.Noise
	case "protocol":
		key.conn, key.interf = req.ConnRadius, req.InterfRadius
		if key.conn == 0 {
			key.conn = 1.5 * linkLen
		}
		if key.interf == 0 {
			key.interf = 2 * key.conn
		}
		if key.interf < key.conn {
			writeError(w, http.StatusBadRequest,
				"interf_radius %g below conn_radius %g", key.interf, key.conn)
			return
		}
	}

	// Admission gates the build: scheduling is the most expensive
	// request the server takes, so it shares the network's concurrency
	// slots with locate traffic.
	if !s.admit(w, r, routeSchedule, entry) {
		return
	}
	defer entry.release()
	snap := entry.snap.Load()
	if n := snap.net.NumStations(); n > s.opt.MaxSchedLinks {
		writeError(w, http.StatusRequestEntityTooLarge,
			"network has %d stations, scheduling is capped at %d links", n, s.opt.MaxSchedLinks)
		return
	}

	// The span starts as a cache hit and is renamed to the path the
	// build actually took (computed fresh or repaired) once known.
	tr := traceOf(w)
	tr.SetNetwork(name)
	bs := tr.Start("sched.cached")
	t0 := time.Now()
	fresh := func(r *schedResult) bool { return r.version >= snap.version }
	res, cached, err := s.schedules.get(cacheKey[schedKey]{net: entry, params: key}, fresh, func(prev *schedResult) (*schedResult, error) {
		// Load the snapshot inside the build so a winner never caches a
		// generation older than any waiter's.
		return buildSchedule(key, entry.snap.Load(), prev)
	})
	tr.End(bs)
	if err != nil {
		writeError(w, errorStatus(err), "cannot schedule: %v", err)
		return
	}
	ki := schedKindIdx(kind)
	s.observeSched(ki, time.Since(t0).Seconds(), tr)
	s.m.schedRequests[ki].Inc()
	path := res.path
	if cached {
		path = "cached"
	}
	tr.SetName(bs, "sched."+path)
	s.m.schedResults[schedPathIdx(path)].Inc()
	writeJSON(w, http.StatusOK, ScheduleResponse{
		Network:   name,
		Version:   res.version,
		Scheduler: kind.String(),
		Model:     model,
		Order:     order,
		LinkLen:   linkLen,
		NumLinks:  len(res.links),
		NumSlots:  res.schedule.NumSlots(),
		Path:      path,
		Repair:    res.repair,
		Slots:     res.schedule.Slots,
	})
}

// buildSchedule computes (or repairs) the schedule for key against
// snap. prev, when non-nil and older than snap, seeds a repair: its
// surviving slot assignments are carried over by sender identity and
// reconciled with sched.Repair, so the work scales with the delta.
func buildSchedule(key schedKey, snap *snapshot, prev *schedResult) (*schedResult, error) {
	net := snap.net
	powers := make([]float64, net.NumStations())
	for i := range powers {
		powers[i] = net.Power(i)
	}
	links := sched.DeriveLinks(net.Stations(), powers, key.linkLen)

	var f sched.Feasibility
	switch key.model {
	case "protocol":
		p, err := sched.NewProtocolProblem(links, key.conn, key.interf)
		if err != nil {
			return nil, err
		}
		f = p
	default:
		beta, noise := key.beta, key.noise
		if beta == 0 {
			beta = net.Beta()
		}
		if noise == 0 {
			noise = net.Noise()
		}
		p, err := sched.NewSINRProblem(links, noise, beta)
		if err != nil {
			return nil, err
		}
		p.Alpha = net.Alpha()
		f = p
	}

	var order []int
	switch key.order {
	case "short":
		order = sched.ByLength(links, true)
	case "long":
		order = sched.ByLength(links, false)
	}

	res := &schedResult{version: snap.version, links: links}
	if prev != nil && prev.version < snap.version {
		if tentative, ok := carryOver(prev, links); ok {
			if repaired, stats, err := sched.Repair(f, tentative, 1); err == nil {
				res.schedule, res.path, res.repair = repaired, "repaired", &stats
				return res, nil
			}
			// A failed repair (e.g. a link infeasible even alone under
			// new parameters) falls through to a fresh compute.
		}
	}
	schedule, err := sched.BuildSchedule(key.kind, f, order)
	if err != nil {
		return nil, err
	}
	res.schedule, res.path = schedule, "computed"
	return res, nil
}

// carryOver maps a previous generation's slot assignments onto the new
// link set by sender identity (position and power). Deltas never move
// stations, so a surviving station keeps its exact derived link; the
// tentative schedule starts from every surviving assignment, and
// Repair places only what changed.
func carryOver(prev *schedResult, links []sched.Link) (*sched.Schedule, bool) {
	type ident struct{ x, y, p float64 }
	slotOf := make(map[ident]int, len(prev.links))
	for si, slot := range prev.schedule.Slots {
		for _, li := range slot {
			l := prev.links[li]
			slotOf[ident{l.Sender.X, l.Sender.Y, l.Power}] = si
		}
	}
	tentative := &sched.Schedule{Slots: make([][]int, prev.schedule.NumSlots())}
	matched := 0
	for j, l := range links {
		if si, ok := slotOf[ident{l.Sender.X, l.Sender.Y, l.Power}]; ok {
			tentative.Slots[si] = append(tentative.Slots[si], j)
			matched++
		}
	}
	return tentative, matched > 0
}
