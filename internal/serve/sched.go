package serve

import (
	"cmp"
	"errors"
	"fmt"
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
// set the protocol model's radii (0 means 1.5x the link scale and 2x
// the connectivity radius). sched.Params owns these defaults.
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

// params parses the request's scheduler and normalizes its instance
// knobs (sched.Params.Normalize).
func (r *ScheduleRequest) params() (sched.Kind, sched.Params, error) {
	kind, err := sched.ParseKind(r.Scheduler)
	if err != nil {
		return 0, sched.Params{}, err
	}
	p, err := sched.Params{Model: sched.Model(r.Model), Order: sched.Order(r.Order), LinkLen: r.LinkLen,
		Beta: r.Beta, Noise: r.Noise, Conn: r.ConnRadius, Interf: r.InterfRadius}.Normalize()
	return kind, p, err
}

// schedKey is the request part of a cached schedule's key, which adds
// the network incarnation but no generation. The parameters are
// normalized before the lookup, so requests differing only in an
// ignored knob share a slot.
type schedKey struct {
	kind   sched.Kind
	params sched.Params
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

// errTooManyLinks fails a build over a generation larger than
// Options.MaxSchedLinks; errorStatus maps it to 413.
var errTooManyLinks = errors.New("scheduling is capped")

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
		req.Scheduler = cmp.Or(req.Scheduler, pol.Scheduler)
		req.Model = cmp.Or(req.Model, pol.Model)
		req.Order = cmp.Or(req.Order, pol.Order)
		req.LinkLen = cmp.Or(req.LinkLen, pol.LinkLen)
	}
	kind, params, err := req.params()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := schedKey{kind: kind, params: params}

	// Admission gates the build: scheduling is the most expensive
	// request the server takes, so it shares the network's concurrency
	// slots with locate traffic.
	if !s.admit(w, r, routeSchedule, entry) {
		return
	}
	defer entry.release()

	// The span starts as a cache hit and is renamed to the path the
	// build actually took (computed fresh or repaired) once known.
	tr := traceOf(w)
	tr.SetNetwork(name)
	bs := tr.Start("sched.cached")
	t0 := time.Now()
	version := entry.snap.Load().version
	fresh := func(r *schedResult) bool { return r.version >= version }
	res, cached, err := s.schedules.get(cacheKey[schedKey]{net: entry, params: key}, fresh, func(prev *schedResult) (*schedResult, error) {
		// Load the snapshot inside the build so a winner never caches a
		// generation older than any waiter's.
		return buildSchedule(key, entry.snap.Load(), prev, s.opt.MaxSchedLinks)
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
		Model:     string(params.Model),
		Order:     string(params.Order),
		LinkLen:   params.LinkLen,
		NumLinks:  len(res.links),
		NumSlots:  res.schedule.NumSlots(),
		Path:      path,
		Repair:    res.repair,
		Slots:     res.schedule.Slots,
	})
}

// buildSchedule computes (or repairs) the schedule for key against
// snap, refusing a generation of more than maxLinks stations. prev,
// when non-nil and older than snap, seeds a repair: its surviving slot
// assignments are carried over by sender identity and reconciled with
// sched.Repair, so the work scales with the delta.
func buildSchedule(key schedKey, snap *snapshot, prev *schedResult, maxLinks int) (*schedResult, error) {
	if n := snap.net.NumStations(); n > maxLinks {
		return nil, fmt.Errorf("network has %d stations, %w at %d links", n, errTooManyLinks, maxLinks)
	}
	inst, err := sched.NewInstance(snap.net, key.params)
	if err != nil {
		return nil, err
	}
	res := &schedResult{version: snap.version, links: inst.Links}
	if prev != nil && prev.version < snap.version {
		if tentative, ok := carryOver(prev, inst.Links); ok {
			if repaired, stats, err := sched.Repair(inst.Problem, tentative, 1); err == nil {
				res.schedule, res.path, res.repair = repaired, "repaired", &stats
				return res, nil
			}
			// A failed repair (e.g. a link infeasible even alone under
			// new parameters) falls through to a fresh compute.
		}
	}
	schedule, err := sched.BuildSchedule(key.kind, inst.Problem, inst.Order)
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
