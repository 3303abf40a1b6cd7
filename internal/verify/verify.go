// Package verify checks a server's answers against independent local
// references: the churn event → dynamic.Delta conversion, a mirror of
// the server's generations (version → local epoch snapshot), the
// answer check and the schedule check. It imports nothing from
// internal/serve, so the server can call it too.
package verify

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Delta converts one churn event to the delta that applies it: an
// arrival, a departure or a power update.
func Delta(ev workload.ChurnEvent) dynamic.Delta {
	switch ev.Kind {
	case workload.ChurnArrive:
		return dynamic.Delta{Add: []dynamic.Station{{Pos: ev.Pos, Power: ev.Power}}}
	case workload.ChurnDepart:
		return dynamic.Delta{Remove: []int{ev.Station}}
	default:
		return dynamic.Delta{SetPower: []dynamic.PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
	}
}

// Mirror is a local copy of one served network's generations, keyed by
// the server's versions, fed the server's deltas in the server's
// order. It is not safe for concurrent use.
type Mirror struct {
	dyn  *dynamic.Network
	gens map[uint64]*dynamic.Snapshot
	last uint64
}

// NewMirror mirrors net, which the server registered as version.
func NewMirror(net *core.Network, version uint64) (*Mirror, error) {
	dyn, err := dynamic.New(net)
	if err != nil {
		return nil, err
	}
	return &Mirror{dyn: dyn, gens: map[uint64]*dynamic.Snapshot{version: dyn.Snapshot()}, last: version}, nil
}

// Apply mirrors a delta the server acknowledged as version at engine
// epoch epoch, which must advance in lockstep with the mirror: version
// one past the last, epoch the mirror's. Versions survive
// re-registrations of a name, so they need not equal epochs.
func (m *Mirror) Apply(d dynamic.Delta, version, epoch uint64) error {
	snap, err := m.dyn.Apply(d)
	if err != nil {
		return fmt.Errorf("mirroring delta: %w", err)
	}
	if version != m.last+1 || epoch != snap.Epoch() {
		return fmt.Errorf("server at version %d epoch %d after delta, expected version %d, local mirror epoch %d",
			version, epoch, m.last+1, snap.Epoch())
	}
	m.last = version
	m.gens[version] = snap
	return nil
}

// Swap records a re-registration of the unchanged station set, which
// the server answered as version.
func (m *Mirror) Swap(version uint64) {
	m.last = version
	m.gens[version] = m.dyn.Snapshot()
}

// Len returns the number of generations mirrored.
func (m *Mirror) Len() int { return len(m.gens) }

// Snapshot returns the generation the server numbered version.
func (m *Mirror) Snapshot(version uint64) (*dynamic.Snapshot, error) {
	snap, ok := m.gens[version]
	if !ok {
		return nil, fmt.Errorf("server answered from version %d, which no local mutation produced", version)
	}
	return snap, nil
}

// Batch is one batch of served answers: the version that answered it
// (0 for a failed batch, which has no answers) and, per point, the
// station served or core.NoStationHeard.
type Batch struct {
	Version uint64
	Points  []geom.Point
	Served  []int
}

// Mismatch is one served answer that differs from the reference.
type Mismatch struct {
	Version      uint64
	Point        geom.Point
	Served, Want int
}

// Reference returns the local engine served answers of kind are
// checked against, and its name: the scan oracle for every SINR kind,
// which keeps the check independent of the engine that answered, and
// a local UDG resolver for udg, a different reception model.
func Reference(kind resolve.Kind) (resolve.Kind, string) {
	if kind == resolve.KindUDG {
		return resolve.KindUDG, "the local UDG resolver"
	}
	return resolve.KindExact, "the local scan oracle"
}

// CheckAnswers checks served answers of kind against Reference(kind)
// on the generation that answered each batch, in version order. radius
// is the UDG radius the requests named (0 derives it as the server
// does). It returns every mismatch; an error means a batch names a
// version the mirror does not hold or a reference failed to build.
func (m *Mirror) CheckAnswers(kind resolve.Kind, radius float64, batches []Batch) ([]Mismatch, error) {
	byVer := make(map[uint64][]Batch)
	for _, b := range batches {
		if b.Version != 0 {
			byVer[b.Version] = append(byVer[b.Version], b)
		}
	}
	versions := make([]uint64, 0, len(byVer))
	for v := range byVer {
		versions = append(versions, v)
	}
	slices.Sort(versions)

	ref, name := Reference(kind)
	var opts []resolve.Option
	if radius > 0 {
		opts = append(opts, resolve.WithRadius(radius))
	}
	var out []Mismatch
	for _, v := range versions {
		snap, err := m.Snapshot(v)
		if err != nil {
			return nil, err
		}
		local, err := resolve.New(ref, snap.Network(), opts...)
		if err != nil {
			return nil, fmt.Errorf("rebuilding %s for version %d: %w", name, v, err)
		}
		var pts []geom.Point
		var served []int
		for _, b := range byVer[v] {
			pts = append(pts, b.Points...)
			served = append(served, b.Served...)
		}
		answers := make([]core.Location, len(pts))
		if err := local.ResolveBatch(context.Background(), pts, answers); err != nil {
			return nil, err
		}
		for i, a := range answers {
			if want := resolve.StationIndex(a); served[i] != want {
				out = append(out, Mismatch{Version: v, Point: pts[i], Served: served[i], Want: want})
			}
		}
	}
	return out, nil
}

// CheckSchedule checks a served schedule of numLinks links against the
// generation the server numbered version, on the instance
// sched.NewInstance rebuilds from p: the overrides the request sent
// (β, noise, radii) with the model, order and link scale the response
// echoes, policy defaults included. Every link must sit in exactly one
// slot and every slot must be feasible; errors name slot and link.
func (m *Mirror) CheckSchedule(version uint64, p sched.Params, numLinks int, slots [][]int) error {
	snap, err := m.Snapshot(version)
	if err != nil {
		return err
	}
	inst, err := sched.NewInstance(snap.Network(), p)
	if err != nil {
		return err
	}
	if numLinks != len(inst.Links) {
		return fmt.Errorf("schedule covers %d links, generation %d has %d", numLinks, version, len(inst.Links))
	}
	if err := (&sched.Schedule{Slots: slots}).Validate(inst.Problem); err != nil {
		return fmt.Errorf("served schedule invalid against the local %s engine: %w", cmp.Or(p.Model, sched.ModelSINR), err)
	}
	return nil
}
