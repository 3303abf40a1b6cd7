package dynamic

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/shardindex"
)

// DefaultRebuildFraction is the churn threshold of the amortized
// rebuild: once the mutations applied since the last full build exceed
// this fraction of the station count at that build, the next Apply
// rebuilds every derived structure from scratch instead of patching.
// Below it, single-station deltas stay on the incremental path, whose
// cost is O(n) copy-on-write bookkeeping instead of the O(n log n)
// kd-tree sort plus grid construction of a full build.
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
// location, power and cover box never change (a power update admits a
// fresh slot at the same network position). Slots are appended under
// the engine mutex; snapshots capture bounded views, so concurrent
// readers never observe an append.
type slots struct {
	pts    []geom.Point
	powers []float64
	boxes  []shardindex.Box
}

// add appends a slot and returns its id.
func (t *slots) add(p geom.Point, power float64, noise, beta, alpha float64) int32 {
	t.pts = append(t.pts, p)
	t.powers = append(t.powers, power)
	t.boxes = append(t.boxes, coverBox(p, power, noise, beta, alpha))
	return int32(len(t.pts) - 1)
}

// coverSlack is the relative margin coverBox adds to the half-side of
// a cover box; see coverBox for the error budget it covers.
const coverSlack = 1e-9

// coverBox bounds station's reception zone by the necessary condition
// E >= beta*N: the zone lies in the square of half-side
// rho = (psi/(beta*N))^(1/alpha) around the station, whatever the
// other stations do — which is what makes the box independent of churn
// elsewhere and lets arrivals and departures touch only their own
// boxes. A noiseless network has unbounded interference-free range;
// its non-finite box disables the grid (BuildDyn returns nil) and the
// snapshot answers without the fast H- exit.
//
// The box must hold every point the float predicate of Network.Heard
// (and HeardBy's scan) accepts, not only the real zone, so the
// half-side carries a relative margin of coverSlack. With u = 2^-53
// the unit roundoff, and every quantity in the normal float range:
//
//   - Heard means fl(e/fl(I+N)) >= beta with interference I >= 0 (0
//     with one station). fl(I+N) >= N because rounding is monotone,
//     and rounded division is monotone in its divisor, so
//     fl(e/N) >= beta, hence e >= beta*N/(1+u).
//   - e = fl(psi*w) with w = d2^(-alpha/2) up to a relative error
//     eps_p (alpha = 2 computes psi/d2 directly: eps_p = 0), and
//     d2 = fl(fl(dx^2)+fl(dy^2)) >= fl(dx^2) >= dx^2*(1-u) with
//     dx = fl(p.X-s.X) = (p.X-s.X)(1+d), |d| <= u. Together:
//     |p.X-s.X| <= rho*((1+eps_p)(1+u)^2)^(1/alpha)/(1-u)^(3/2), and
//     the same for y.
//   - The computed half-side r is rho up to the rounding of
//     beta*N, of psi/(beta*N) and of 1/alpha (exact for alpha = 2),
//     plus the error of math.Pow itself (math.Pow(x, 0.5) is
//     math.Sqrt, correctly rounded).
//   - For alpha != 2 this assumes math.Pow's relative error is at most
//     1e-12. Go's Pow is exp(yf*log x) times a product by repeated
//     squaring; its error grows with |y*ln x| <= ~2^11 over the
//     double range, a few hundred ulps at most, about 3e-13. That is
//     an assumption about the library, not a proof.
//
// Every term above is below 1e-11 of rho, so R = r*(1+coverSlack)
// bounds |p.X-s.X| with three orders of magnitude to spare. The edge
// addition needs no margin of its own: p.X <= s.X+R in real terms
// and p.X is a float, so monotone rounding gives p.X <= fl(s.X+R),
// and likewise fl(s.X-R) <= p.X. The grid places points and box edges
// with one monotone cell formula, so a point inside a box lands in a
// cell that lists it.
func coverBox(p geom.Point, power, noise, beta, alpha float64) shardindex.Box {
	if noise <= 0 {
		inf := math.Inf(1)
		return shardindex.Box{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
	}
	r := math.Pow(power/(beta*noise), 1/alpha) * (1 + coverSlack)
	return shardindex.Box{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
}

// Snapshot is one immutable epoch of a dynamic network: the station
// set after some prefix of the mutation log, with every structure a
// query needs. Queries against a Snapshot are unaffected by later
// Apply calls — in-flight batches and streams pin the epoch they
// started on and finish on it. Safe for concurrent use.
type Snapshot struct {
	epoch uint64
	net   *core.Network
	stats ApplyStats

	// Bounded view of the slot table's locations (immutable); the grid
	// keeps its own view of the cover boxes.
	pts []geom.Point

	curToID []int32 // network index -> slot id, canonical order
	idToCur []int32 // slot id -> network index, -1 = departed

	// Base kd-tree overlay: base indexes the stations of the last
	// rebuild (in that epoch's order); remap translates its indices to
	// this epoch's, filtering departed stations; extras lists the slot
	// ids admitted since, scanned linearly.
	base    *kdtree.Tree
	baseIDs []int32
	remap   func(int) (int, bool)
	extras  []int32

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
// exactly. The fast path is one grid-cell lookup over the per-station
// cover boxes — a point outside every box is certified H- without
// touching a station. For beta > 1 at most one station can be heard
// (Observation 2.2), so one candidate and one SINR check settle the
// point: the nearest station from the base-tree overlay for uniform
// networks, the strongest-signal station (core.Network.Strongest, one
// O(n) pass) otherwise. The check is the epoch's certified far-field
// tree (core.FarField) where it has one, and the exact
// Network.Heard otherwise; both give Heard's answer. Networks with
// beta <= 1 take the exact scan. Answers are identical to a
// from-scratch Network.HeardBy — and, for locator-eligible networks,
// to a from-scratch Theorem 3 locator's LocateExact. The hot path
// performs no allocations.
//
//sinr:hotpath
func (s *Snapshot) Locate(p geom.Point) core.Location {
	if s.grid != nil && !s.grid.Covers(p.X, p.Y) {
		return core.Location{Kind: core.NoReception}
	}
	if s.net.Beta() <= 1 {
		return s.net.NaiveLocate(p)
	}
	// Under uniform power the strongest station, the only one that can
	// be heard, is the nearest.
	var idx int
	var ok bool
	if s.net.IsUniform() {
		idx, ok = s.nearest(p)
	} else {
		idx, ok = s.net.Strongest(p)
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

// nearest returns the current index of the station closest to p,
// minimizing (distance, index) over the base-tree overlay (base tree
// with departed stations filtered out, plus a linear scan of the
// stations admitted since the last rebuild). The combined order is
// exactly the order a from-scratch kd-tree over the current stations
// would use, so tie-breaks agree point-for-point.
//
//sinr:hotpath
func (s *Snapshot) nearest(p geom.Point) (int, bool) {
	best := -1
	bestD2 := math.Inf(1)
	if s.base != nil {
		if m, d2, ok := s.base.NearestMapped(p, s.remap); ok {
			best, bestD2 = m, d2
		}
	}
	for _, id := range s.extras {
		cur := int(s.idToCur[id])
		d2 := geom.Dist2(s.pts[id], p)
		if d2 < bestD2 || (d2 == bestD2 && (best < 0 || cur < best)) {
			best, bestD2 = cur, d2
		}
	}
	return best, best >= 0
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

// New wraps net in a dynamic engine at epoch 1 (a full build: kd-tree,
// cover boxes and — for noisy networks — the incremental grid).
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
func (d *Network) rebuild(net *core.Network, epoch uint64, stats ApplyStats) {
	n := net.NumStations()
	tab := &slots{
		pts:    make([]geom.Point, 0, n),
		powers: make([]float64, 0, n),
		boxes:  make([]shardindex.Box, 0, n),
	}
	curToID := make([]int32, n)
	idToCur := make([]int32, n)
	for i := 0; i < n; i++ {
		id := tab.add(net.Station(i), net.Power(i), net.Noise(), net.Beta(), net.Alpha())
		curToID[i] = id
		idToCur[id] = int32(i)
	}
	snap := &Snapshot{
		epoch:   epoch,
		net:     net,
		stats:   stats,
		pts:     tab.pts[:n:n],
		curToID: curToID,
		idToCur: idToCur,
		base:    kdtree.New(tab.pts[:n]),
		baseIDs: curToID, // identity: base order is canonical order
		extras:  nil,
		grid:    shardindex.BuildDyn(tab.boxes[:n:n], curToID),
	}
	if n >= farFieldMinStations {
		snap.far = core.NewFarField(net)
	}
	snap.remap = remapFunc(snap)
	d.tab = tab
	d.baseN = n
	d.opsSinceRebuild = 0
	d.cur.Store(snap)
}

// remapFunc builds the base-tree translation closure for snap: base
// index -> slot id -> current index, rejecting departed stations.
func remapFunc(snap *Snapshot) func(int) (int, bool) {
	return func(i int) (int, bool) {
		cur := snap.idToCur[snap.baseIDs[i]]
		return int(cur), cur >= 0
	}
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
// affected cover boxes and overlaying the kd-tree); above it — or when
// an arrival falls outside the grid's extent — everything is rebuilt
// from scratch and the accounting resets. The returned snapshot's
// ApplyStats say which path was taken. On error the network is
// unchanged.
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
func (d *Network) applyIncremental(old *Snapshot, delta Delta, removedMask []bool, stats ApplyStats) (*Snapshot, *core.Network, bool, error) {
	tab := d.tab
	n := old.NumStations()
	noise, beta, alpha := old.net.Noise(), old.net.Beta(), old.net.Alpha()

	// Working copy of the canonical order; repowers swap in fresh slots
	// at the same position, removals and additions reshape it below.
	curID := append(make([]int32, 0, n+len(delta.Add)), old.curToID...)
	var removedIDs, addedIDs []int32
	for _, pu := range delta.SetPower {
		oldID := curID[pu.Station]
		if tab.powers[oldID] == pu.Power {
			continue // no-op update: keep the slot, touch nothing
		}
		newID := tab.add(tab.pts[oldID], pu.Power, noise, beta, alpha)
		curID[pu.Station] = newID
		removedIDs = append(removedIDs, oldID)
		addedIDs = append(addedIDs, newID)
	}
	out := curID[:0]
	for i := 0; i < n; i++ {
		if removedMask[i] {
			removedIDs = append(removedIDs, curID[i])
		} else {
			out = append(out, curID[i])
		}
	}
	curID = out
	for _, st := range delta.Add {
		id := tab.add(st.Pos, addPower(st), noise, beta, alpha)
		curID = append(curID, id)
		addedIDs = append(addedIDs, id)
	}

	nIDs := len(tab.pts)
	idToCur := make([]int32, nIDs)
	for i := range idToCur {
		idToCur[i] = -1
	}
	for cur, id := range curID {
		idToCur[id] = int32(cur)
	}

	// Grid deltas in live terms: a slot admitted and retired within
	// this one delta (a repowered station repowered again, or removed)
	// was never in the grid — cancel both sides instead of patching.
	oldNIDs := len(old.idToCur)
	gridRemoved := removedIDs[:0]
	for _, id := range removedIDs {
		if int(id) < oldNIDs {
			gridRemoved = append(gridRemoved, id)
		}
	}
	gridAdded := make([]int32, 0, len(addedIDs))
	for _, id := range addedIDs {
		if idToCur[id] >= 0 {
			gridAdded = append(gridAdded, id)
		}
	}

	grid := old.grid
	if grid != nil {
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

	extras := make([]int32, 0, len(old.extras)+len(gridAdded))
	for _, id := range old.extras {
		if idToCur[id] >= 0 {
			extras = append(extras, id)
		}
	}
	extras = append(extras, gridAdded...)

	stats.Stations = len(curID)
	snap := &Snapshot{
		epoch:   stats.Epoch,
		net:     net,
		stats:   stats,
		pts:     tab.pts[:nIDs:nIDs],
		curToID: curID,
		idToCur: idToCur,
		base:    old.base,
		baseIDs: old.baseIDs,
		extras:  extras,
		grid:    grid,
	}
	snap.remap = remapFunc(snap)
	return snap, nil, true, nil
}
