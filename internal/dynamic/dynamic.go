package dynamic

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shardindex"
)

// DefaultRebuildFraction is the churn threshold of the amortized
// rebuild: once the mutations applied since the last full build exceed
// this fraction of the station count at that build, the next Apply
// rebuilds every derived structure from scratch instead of patching.
// Below it, single-station deltas stay on the incremental path, whose
// cost is O(n) copy-on-write bookkeeping instead of the cover-box
// derivation, grid construction and (from farFieldMinStations) the
// far-field tree of a full build.
const DefaultRebuildFraction = 0.25

// farFieldMinStations is the station count from which a rebuild also
// builds the certified far-field check (core.FarField) that Locate's
// beta > 1 candidate test goes through. On Theorem 4.1 annulus points
// of a constant-density network the check costs 0.36 us against the
// exact sum's 0.52 us at n = 512, 0.52 against 1.04 us at 1024 and
// 1.6 against 10 us at 10^4 (core's BenchmarkFarField), while the tree
// holds 23 bytes a station (31 under per-station powers) and takes
// 58 us to build at 1024. Below 1024 a check is already under a
// microsecond, so small networks build and hold nothing.
const farFieldMinStations = 1024

// Station describes one station of a delta: its location and
// transmission power. A zero Power means the uniform default 1.
type Station struct {
	Pos   geom.Point
	Power float64
}

// PowerUpdate changes the transmission power of one existing station.
type PowerUpdate struct {
	Station int // index into the epoch the delta is applied to
	Power   float64
}

// Delta is one batch of mutations against a specific epoch. It is
// applied in three phases — SetPower first, then Remove, then Add —
// and both SetPower and Remove address stations by their index in the
// epoch the delta is applied to (pre-delta indices throughout, so the
// phases cannot shift each other's targets). Removals compact the
// surviving stations in order; additions append in order. Duplicate
// SetPower entries for one station apply in order (last wins).
type Delta struct {
	SetPower []PowerUpdate
	Remove   []int
	Add      []Station
}

// ApplyPath says which maintenance path an Apply took.
type ApplyPath int

// The two paths: incremental (copy-on-write patching of the previous
// epoch's structures) and rebuild (everything derived from scratch —
// the amortized path above the churn threshold, and the path of the
// initial build).
const (
	PathIncremental ApplyPath = iota
	PathRebuild
)

// String implements fmt.Stringer ("incremental", "rebuild") — the
// vocabulary of the serve layer's apply_path wire field.
func (p ApplyPath) String() string {
	switch p {
	case PathIncremental:
		return "incremental"
	case PathRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("ApplyPath(%d)", int(p))
	}
}

// ApplyStats describes how one epoch came to be.
type ApplyStats struct {
	Epoch    uint64
	Path     ApplyPath
	Stations int // station count of the epoch

	Added     int // stations added by the delta
	Removed   int // stations removed by the delta
	Repowered int // power updates applied by the delta

	// GridCellsTouched is the number of spatial-index cells the
	// incremental path privatized (0 when the grid is disabled or the
	// path was a rebuild).
	GridCellsTouched int
	// ChurnFraction is the cumulative mutation count since the last
	// rebuild — including this delta — over the station count at that
	// rebuild; crossing the rebuild threshold flips Path to rebuild.
	ChurnFraction float64
}

// slots is the append-only stable-slot table behind one rebuild
// generation: a station admitted to the network gets a slot id whose
// location, power and cover box never change. A power update, or a
// cover box re-derived because a station bounding it departed or lost
// power, admits a fresh slot at the same network position. Slots are
// appended under the engine mutex; snapshots capture bounded views, so
// concurrent readers never observe an append.
type slots struct {
	pts    []geom.Point
	powers []float64
	boxes  []shardindex.Box
	// ident names the station a slot belongs to: the id of the slot
	// it arrived with (or got at the last rebuild). A repower or a
	// re-derived box keeps it, so re-deriving a box never invalidates
	// the boxes its station bounds.
	ident []int32
	// deps[id] holds, per side of boxes[id] (MinX, MinY, MaxX, MaxY),
	// the identity of the station whose dominance disc bounds it, or -1
	// where the noise box does.
	deps [][4]int32
	// binder[j] is set once identity j bounds a side of some box, so
	// an Apply whose departures and power drops bound nothing skips
	// the scan for dependent boxes. Engine-private: snapshots never
	// read it.
	binder []bool
}

// add appends a slot for station identity ident (-1: a new station,
// named by the slot itself) and returns its id. Its box is set by
// derive once the epoch's station set is known.
func (t *slots) add(p geom.Point, power float64, ident int32) int32 {
	id := int32(len(t.pts))
	if ident < 0 {
		ident = id
	}
	t.pts = append(t.pts, p)
	t.powers = append(t.powers, power)
	t.boxes = append(t.boxes, shardindex.Box{})
	t.ident = append(t.ident, ident)
	t.deps = append(t.deps, noDeps)
	t.binder = append(t.binder, false)
	return id
}

// Snapshot is one immutable epoch of a dynamic network: the station
// set after some prefix of the mutation log, with every structure a
// query needs. Queries against a Snapshot are unaffected by later
// Apply calls — in-flight batches and streams pin the epoch they
// started on and finish on it. Safe for concurrent use.
//
// The grid lists each station's cover box under its slot id. For
// beta > 1 that box is the noise box cut by the dominance discs of
// nearby stations (dominanceBox), about a station spacing wide; for
// beta <= 1 it is the noise box.
type Snapshot struct {
	epoch uint64
	net   *core.Network
	stats ApplyStats

	curToID []int32 // network index -> slot id, canonical order
	idToCur []int32 // slot id -> network index, -1 = departed

	grid *shardindex.Index // nil = disabled (unbounded cover boxes)

	// far is the certified far-field check of rebuild-path epochs of
	// at least farFieldMinStations stations; nil elsewhere (incremental
	// epochs, small networks, networks outside its certified range),
	// where the candidate test is the exact Network.Heard.
	far *core.FarField
}

// Epoch returns the snapshot's epoch number (1 for the initial build,
// +1 per Apply).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Network returns the epoch's station set as an immutable core
// network — the exact object a from-scratch build on the same
// stations would produce.
func (s *Snapshot) Network() *core.Network { return s.net }

// NumStations returns the epoch's station count.
func (s *Snapshot) NumStations() int { return len(s.curToID) }

// ApplyStats reports how this epoch was produced.
func (s *Snapshot) ApplyStats() ApplyStats { return s.stats }

// GridEnabled reports whether the epoch carries the incremental
// spatial index (false for noiseless networks, whose cover boxes are
// unbounded).
func (s *Snapshot) GridEnabled() bool { return s.grid != nil }

// Locate answers "which station is heard at p?" for this epoch,
// exactly. For beta > 1 at most one station can be heard
// (Observation 2.2): the strongest one at p. One grid-cell lookup
// yields the cover boxes that contain p; the station heard at p, if
// any, is among them, so the strongest of these hits is the one
// candidate, and no hit certifies H-. The hits' energies are the very
// terms Heard's interference sum adds (psi/Dist2 for alpha = 2, Energy
// otherwise), so a heard station beats every other hit strictly:
// fl(I+N) >= E_k for each k it sums. If the strongest hit is not
// heard, no station is. Ties go to the lowest index. The one SINR
// check is the epoch's certified far-field tree (core.FarField) where
// it has one, and the exact Network.Heard otherwise; both give Heard's
// answer. Without a grid (noiseless networks) the candidate is
// core.Network.Strongest, one O(n) pass. Networks with beta <= 1 take
// the grid's H- exit over their noise boxes, then the exact scan.
// Answers are identical to a from-scratch Network.HeardBy — and, for
// locator-eligible networks, to a from-scratch Theorem 3 locator's
// LocateExact. The hot path performs no allocations.
//
//sinr:hotpath
func (s *Snapshot) Locate(p geom.Point) core.Location {
	var idx int
	var ok bool
	switch {
	case s.net.Beta() <= 1:
		if s.grid != nil && !s.grid.Covers(p.X, p.Y) {
			return core.Location{Kind: core.NoReception}
		}
		return s.net.NaiveLocate(p)
	case s.grid == nil:
		idx, ok = s.net.Strongest(p)
	default:
		bestE := math.Inf(-1)
		idx = -1
		alpha2 := s.net.Alpha() == 2
		for _, id := range s.grid.Candidates(p.X, p.Y) {
			if !s.grid.Contains(id, p.X, p.Y) {
				continue
			}
			cur := int(s.idToCur[id])
			var e float64
			if alpha2 {
				e = s.net.Power(cur) / geom.Dist2(s.net.Station(cur), p)
			} else {
				e = s.net.Energy(cur, p)
			}
			if e > bestE || (e == bestE && cur < idx) {
				idx, bestE = cur, e
			}
		}
		ok = idx >= 0
	}
	if ok {
		if s.far != nil {
			ok = s.far.Heard(idx, p)
		} else {
			ok = s.net.Heard(idx, p)
		}
	}
	if ok {
		return core.Location{Kind: core.Reception, Station: idx}
	}
	return core.Location{Kind: core.NoReception}
}

// HeardBy reports the station heard at p, comma-ok style, agreeing
// with Network.HeardBy on every point (so a Snapshot satisfies the
// same reception-model shape as Network and Locator).
func (s *Snapshot) HeardBy(p geom.Point) (int, bool) {
	loc := s.Locate(p)
	if loc.Kind != core.Reception {
		return 0, false
	}
	return loc.Station, true
}

// Option customizes a dynamic network engine.
type Option func(*Network) error

// WithRebuildFraction sets the churn threshold of the amortized
// rebuild (default DefaultRebuildFraction). Zero rebuilds on every
// Apply (the from-scratch baseline); math.Inf(1) never amortizes
// (every Apply stays incremental) — both are useful for benchmarks
// and the equivalence tests.
func WithRebuildFraction(f float64) Option {
	return func(d *Network) error {
		if f < 0 || math.IsNaN(f) {
			return fmt.Errorf("dynamic: rebuild fraction must be non-negative, got %g", f)
		}
		d.rebuildFraction = f
		return nil
	}
}

// Network is a versioned dynamic station set: Apply takes a Delta and
// produces a fresh immutable epoch Snapshot, patching the spatial
// structures copy-on-write on the hot path and rebuilding them
// amortized once churn since the last rebuild exceeds the threshold.
// Apply calls are serialized; Snapshot and the snapshots themselves
// are safe for concurrent use, and queries running against an older
// epoch are never disturbed by later mutations.
type Network struct {
	mu  sync.Mutex // serializes Apply and the slot-table appends
	cur atomic.Pointer[Snapshot]

	rebuildFraction float64
	tab             *slots // current rebuild generation's slot table
	baseN           int    // station count at the last rebuild
	opsSinceRebuild int    // mutations applied since
}

// New wraps net in a dynamic engine at epoch 1 (a full build: cover
// boxes and — for noisy networks — the incremental grid).
func New(net *core.Network, opts ...Option) (*Network, error) {
	d := &Network{rebuildFraction: DefaultRebuildFraction}
	for _, opt := range opts {
		if err := opt(d); err != nil {
			return nil, err
		}
	}
	d.rebuild(net, 1, ApplyStats{Epoch: 1, Path: PathRebuild, Stations: net.NumStations()})
	return d, nil
}

// Snapshot returns the current epoch.
func (d *Network) Snapshot() *Snapshot { return d.cur.Load() }

// Epoch returns the current epoch number.
func (d *Network) Epoch() uint64 { return d.cur.Load().epoch }

// rebuild installs a from-scratch snapshot for net (the amortized path
// and the initial build), resetting the churn accounting. Callers hold
// d.mu (or are the constructor). The slot table starts at capacity n:
// a static network never admits another slot, and the first admission
// reallocates, which readers never see through their capped views.
//
// The grid is framed by the noise boxes. For beta > 1 each station's
// box is then cut by the dominance discs of the stations near it,
// found through a grid of the station points in the same frame, and
// the grid lists those boxes.
func (d *Network) rebuild(net *core.Network, epoch uint64, stats ApplyStats) {
	n := net.NumStations()
	m := params{noise: net.Noise(), beta: net.Beta(), alpha: net.Alpha()}
	tab := &slots{
		pts:    make([]geom.Point, 0, n),
		powers: make([]float64, 0, n),
		boxes:  make([]shardindex.Box, 0, n),
		ident:  make([]int32, 0, n),
		deps:   make([][4]int32, 0, n),
		binder: make([]bool, 0, n),
	}
	curToID := make([]int32, n)
	frame := make([]shardindex.Box, n)
	for i := 0; i < n; i++ {
		id := tab.add(net.Station(i), net.Power(i), -1)
		curToID[i] = id
		frame[i] = coverBox(net.Station(i), net.Power(i), m)
	}
	var near *shardindex.Index
	if m.dominance() {
		// The station points, in the frame the grid will have.
		points := make([]shardindex.Box, n)
		for i, p := range tab.pts {
			points[i] = shardindex.Box{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		}
		near = shardindex.BuildFramed(frame, points, curToID)
	}
	for id := range curToID {
		tab.derive(int32(id), frame[id], near, nil, m)
	}
	snap := &Snapshot{
		epoch:   epoch,
		net:     net,
		stats:   stats,
		curToID: curToID,
		idToCur: curToID, // identity: slot ids are canonical order
		grid:    shardindex.BuildFramed(frame, tab.boxes[:n:n], curToID),
	}
	if n >= farFieldMinStations {
		snap.far = core.NewFarField(net)
	}
	d.tab = tab
	d.baseN = n
	d.opsSinceRebuild = 0
	d.cur.Store(snap)
}

// validate checks delta against a station count of n and returns the
// removal mask.
func validate(n int, delta Delta) ([]bool, error) {
	for _, pu := range delta.SetPower {
		if pu.Station < 0 || pu.Station >= n {
			return nil, fmt.Errorf("dynamic: power update targets station %d of %d", pu.Station, n)
		}
		if pu.Power <= 0 || math.IsNaN(pu.Power) || math.IsInf(pu.Power, 0) {
			return nil, fmt.Errorf("dynamic: power update for station %d must be a positive finite number, got %g", pu.Station, pu.Power)
		}
	}
	removed := make([]bool, n)
	for _, i := range delta.Remove {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("dynamic: removal targets station %d of %d", i, n)
		}
		if removed[i] {
			return nil, fmt.Errorf("dynamic: station %d removed twice in one delta", i)
		}
		removed[i] = true
	}
	for _, st := range delta.Add {
		if math.IsNaN(st.Pos.X) || math.IsNaN(st.Pos.Y) || math.IsInf(st.Pos.X, 0) || math.IsInf(st.Pos.Y, 0) {
			return nil, fmt.Errorf("dynamic: arriving station at non-finite location %v", st.Pos)
		}
		if st.Power < 0 || math.IsNaN(st.Power) || math.IsInf(st.Power, 0) {
			return nil, fmt.Errorf("dynamic: arriving station power must be a non-negative finite number (0 = uniform default), got %g", st.Power)
		}
	}
	if n-len(delta.Remove)+len(delta.Add) < 1 {
		return nil, fmt.Errorf("dynamic: delta would leave no stations")
	}
	return removed, nil
}

// addPower resolves the Station.Power convention (0 = uniform 1).
func addPower(st Station) float64 {
	if st.Power == 0 {
		return 1
	}
	return st.Power
}

// Apply applies delta to the current epoch and installs the resulting
// snapshot as epoch+1, returning it. Below the churn threshold the
// derived structures are patched copy-on-write (re-inserting only the
// affected cover boxes); above it — or when an arrival's box falls
// outside the grid's extent — everything is rebuilt from scratch and
// the accounting resets. The returned snapshot's ApplyStats say which
// path was taken. On error the network is unchanged.
func (d *Network) Apply(delta Delta) (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	old := d.cur.Load()
	n := old.NumStations()
	removedMask, err := validate(n, delta)
	if err != nil {
		return nil, err
	}

	net := old.net
	ops := len(delta.SetPower) + len(delta.Remove) + len(delta.Add)
	d.opsSinceRebuild += ops
	churn := float64(d.opsSinceRebuild) / float64(max(d.baseN, 1))
	stats := ApplyStats{
		Epoch:         old.epoch + 1,
		Path:          PathIncremental,
		Added:         len(delta.Add),
		Removed:       len(delta.Remove),
		Repowered:     len(delta.SetPower),
		ChurnFraction: churn,
	}

	if churn <= d.rebuildFraction {
		snap, newNet, ok, err := d.applyIncremental(old, delta, removedMask, stats)
		if err != nil {
			d.opsSinceRebuild -= ops
			return nil, err
		}
		if ok {
			d.cur.Store(snap)
			return snap, nil
		}
		net = newNet // reuse the already-built network for the rebuild
	}

	// Amortized path: from-scratch build on the final station set.
	if net == old.net {
		pts, powers := finalSets(old, delta, removedMask)
		net, err = newCore(old.net, pts, powers)
		if err != nil {
			d.opsSinceRebuild -= ops
			return nil, err
		}
	}
	stats.Path = PathRebuild
	stats.Stations = net.NumStations()
	d.rebuild(net, old.epoch+1, stats)
	return d.cur.Load(), nil
}

// finalSets applies delta to old's canonical station/power arrays.
func finalSets(old *Snapshot, delta Delta, removedMask []bool) ([]geom.Point, []float64) {
	n := old.NumStations()
	pts := make([]geom.Point, 0, n+len(delta.Add))
	powers := make([]float64, 0, n+len(delta.Add))
	for i := 0; i < n; i++ {
		pts = append(pts, old.net.Station(i))
		powers = append(powers, old.net.Power(i))
	}
	for _, pu := range delta.SetPower {
		powers[pu.Station] = pu.Power
	}
	out, outP := pts[:0], powers[:0]
	for i := 0; i < n; i++ {
		if !removedMask[i] {
			out = append(out, pts[i])
			outP = append(outP, powers[i])
		}
	}
	for _, st := range delta.Add {
		out = append(out, st.Pos)
		outP = append(outP, addPower(st))
	}
	return out, outP
}

// newCore builds the canonical immutable network for a station set,
// carrying over noise, beta and alpha from prev.
func newCore(prev *core.Network, pts []geom.Point, powers []float64) (*core.Network, error) {
	return core.NewNetwork(pts, prev.Noise(), prev.Beta(),
		core.WithAlpha(prev.Alpha()), core.WithPowers(powers))
}

// applyIncremental patches old into the next epoch copy-on-write.
// ok = false (with the already-built network) means the grid could not
// absorb the delta — an arrival outside its extent — and the caller
// must take the rebuild path. Callers hold d.mu.
//
// An arrival or a power increase only adds interference, so every
// other zone shrinks and every other box stays valid: only the
// station's own fresh slot derives a box. A departure or a power drop
// of station j voids the boxes j bounds (j's identity in their deps);
// those stations are re-derived into fresh slots, copy-on-write like
// repowers. Fresh boxes take their dominators from the old grid's
// cells over their noise box, skipping the stations that weaken.
func (d *Network) applyIncremental(old *Snapshot, delta Delta, removedMask []bool, stats ApplyStats) (*Snapshot, *core.Network, bool, error) {
	tab := d.tab
	n := old.NumStations()
	m := params{noise: old.net.Noise(), beta: old.net.Beta(), alpha: old.net.Alpha()}

	// Working copy of the canonical order; repowers swap in fresh slots
	// at the same position, removals and additions reshape it below.
	// retired lists the slots leaving the epoch and fresh those entering
	// it; a slot admitted and retired within this one delta (a station
	// repowered twice, or repowered and removed) is in both.
	curID := append(make([]int32, 0, n+len(delta.Add)), old.curToID...)
	var retired, fresh []int32
	for _, pu := range delta.SetPower {
		oldID := curID[pu.Station]
		if tab.powers[oldID] == pu.Power {
			continue // no-op update: keep the slot, touch nothing
		}
		newID := tab.add(tab.pts[oldID], pu.Power, tab.ident[oldID])
		curID[pu.Station] = newID
		retired = append(retired, oldID)
		fresh = append(fresh, newID)
	}
	// weak lists the stations whose dominance discs stop bounding:
	// departures and power drops.
	var weak []int32
	for _, i := range delta.Remove {
		weak = append(weak, tab.ident[old.curToID[i]])
	}
	for _, pu := range delta.SetPower {
		if oldID := old.curToID[pu.Station]; tab.powers[curID[pu.Station]] < tab.powers[oldID] {
			weak = append(weak, tab.ident[oldID])
		}
	}
	out := curID[:0]
	for i := 0; i < n; i++ {
		if removedMask[i] {
			retired = append(retired, curID[i])
		} else {
			out = append(out, curID[i])
		}
	}
	curID = out
	oldNIDs := len(old.idToCur)
	if slices.ContainsFunc(weak, func(j int32) bool { return tab.binder[j] }) {
		for k, id := range curID {
			if int(id) < oldNIDs && boundBy(tab.deps[id], weak) {
				newID := tab.add(tab.pts[id], tab.powers[id], tab.ident[id])
				curID[k] = newID
				retired = append(retired, id)
				fresh = append(fresh, newID)
			}
		}
	}
	for _, st := range delta.Add {
		id := tab.add(st.Pos, addPower(st), -1)
		curID = append(curID, id)
		fresh = append(fresh, id)
	}

	nIDs := len(tab.pts)
	idToCur := make([]int32, nIDs)
	for i := range idToCur {
		idToCur[i] = -1
	}
	for cur, id := range curID {
		idToCur[id] = int32(cur)
	}

	// Grid deltas in live terms: a slot both admitted and retired by
	// this delta was never in the grid — cancel both sides instead of
	// patching.
	gridRemoved := retired[:0]
	for _, id := range retired {
		if int(id) < oldNIDs {
			gridRemoved = append(gridRemoved, id)
		}
	}
	gridAdded := fresh[:0]
	for _, id := range fresh {
		if idToCur[id] >= 0 {
			gridAdded = append(gridAdded, id)
		}
	}

	grid := old.grid
	if grid != nil {
		for _, id := range gridAdded {
			tab.derive(id, coverBox(tab.pts[id], tab.powers[id], m), old.grid, weak, m)
		}
		var touched int
		var ok bool
		grid, touched, ok = grid.Update(tab.boxes[:nIDs:nIDs], gridRemoved, gridAdded)
		if !ok {
			// The arrival fell outside the grid extent; hand the caller
			// the network so the rebuild does not recompute it.
			pts, powers := finalSets(old, delta, removedMask)
			net, err := newCore(old.net, pts, powers)
			return nil, net, false, err
		}
		stats.GridCellsTouched = touched
	}

	pts := make([]geom.Point, len(curID))
	powers := make([]float64, len(curID))
	for i, id := range curID {
		pts[i] = tab.pts[id]
		powers[i] = tab.powers[id]
	}
	net, err := newCore(old.net, pts, powers)
	if err != nil {
		return nil, nil, false, err
	}

	stats.Stations = len(curID)
	snap := &Snapshot{
		epoch:   stats.Epoch,
		net:     net,
		stats:   stats,
		curToID: curID,
		idToCur: idToCur,
		grid:    grid,
	}
	return snap, nil, true, nil
}

// boundBy reports whether a side of a box whose sides deps names is
// bounded by a station in weak.
func boundBy(deps [4]int32, weak []int32) bool {
	for _, j := range deps {
		if j >= 0 && slices.Contains(weak, j) {
			return true
		}
	}
	return false
}
