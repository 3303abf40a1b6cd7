package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/shardindex"
)

// LocationKind is the answer category of an approximate point-location
// query (Theorem 3): the query point is certified inside some H_i+,
// certified outside every zone (H-), or in an uncertainty ring H_i?.
type LocationKind int

// Query answer categories.
const (
	NoReception LocationKind = iota // p in H-: no station is heard
	Reception                       // p in H_i+: station i is heard
	Uncertain                       // p in H_i?: within eps-ring of zone i
)

// String implements fmt.Stringer.
func (k LocationKind) String() string {
	switch k {
	case NoReception:
		return "H-"
	case Reception:
		return "H+"
	case Uncertain:
		return "H?"
	default:
		return fmt.Sprintf("LocationKind(%d)", int(k))
	}
}

// Location is the result of a point-location query.
type Location struct {
	Kind    LocationKind
	Station int // meaningful for Reception and Uncertain
}

// NoStationHeard is the station index that index-shaped answers (the
// resolver wire shape, reception-map pixels) report for a point where
// no station is heard. It matches raster.NoStation, so flattened
// answers can be written straight into a reception map.
const NoStationHeard = -1

// Locator is the Theorem 3 data structure DS: a nearest-station index
// (Observation 2.2 reduces the candidate set to the Voronoi owner)
// combined with one QDS per station. Total size O(n * eps^-1), built
// in O(n^3 * eps^-1), answering queries in O(log n).
type Locator struct {
	net  *Network
	tree *kdtree.Tree
	qds  []*QDS
	eps  float64
	// sx is the sharded spatial index over the per-station cover
	// boxes (QDS.CoverBox): one grid-cell lookup bounds the candidate
	// stations whose zones can contain a query point, and an empty
	// answer certifies H- without touching the kd-tree. nil when the
	// build disabled it (BuildOptions.NoSpatialIndex).
	sx *shardindex.Index
}

// BuildLocator constructs the combined point-location structure with
// performance parameter eps for every station of the network. The
// network must satisfy the Theorem 3 preconditions (uniform power,
// alpha = 2, beta > 1).
//
// The per-station QDS constructions — the O(n^3/eps) bulk of the
// work — are fanned out over DefaultWorkers() goroutines; use
// BuildLocatorOpts to pick the worker count explicitly. The result is
// identical to the serial build for any worker count.
func (n *Network) BuildLocator(eps float64) (*Locator, error) {
	return BuildLocatorOpts(n, eps, BuildOptions{})
}

// BuildLocatorOpts is BuildLocator with explicit build options.
// Workers: 1 reproduces the seed's serial build exactly;
// Workers: 0 means DefaultWorkers().
func BuildLocatorOpts(n *Network, eps float64, opt BuildOptions) (*Locator, error) {
	loc := &Locator{
		net:  n,
		tree: kdtree.New(n.stations),
		qds:  make([]*QDS, len(n.stations)),
		eps:  eps,
	}
	err := parallelForErr(len(n.stations), opt.Workers, func(i int) error {
		q, err := n.BuildQDS(i, eps)
		if err != nil {
			return fmt.Errorf("core: building QDS for station %d: %w", i, err)
		}
		loc.qds[i] = q
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !opt.NoSpatialIndex {
		boxes := make([]shardindex.Box, len(loc.qds))
		for i, q := range loc.qds {
			b := q.CoverBox()
			boxes[i] = shardindex.Box{MinX: b.Min.X, MinY: b.Min.Y, MaxX: b.Max.X, MaxY: b.Max.Y}
		}
		loc.sx = shardindex.Build(boxes)
	}
	return loc, nil
}

// Eps returns the performance parameter.
func (l *Locator) Eps() float64 { return l.eps }

// QDSFor returns the per-station structure (for inspection and tests).
func (l *Locator) QDSFor(i int) *QDS { return l.qds[i] }

// NumUncertainCells sums |T?| over all stations — the O(n/eps) size
// driver of the combined structure.
func (l *Locator) NumUncertainCells() int {
	total := 0
	for _, q := range l.qds {
		total += q.NumUncertainCells()
	}
	return total
}

// Locate answers an approximate point-location query. With the
// spatial index (the default) the path is: one grid-cell lookup over
// the per-station cover boxes — an empty candidate set certifies H-
// immediately, which is the common case for traffic over the mostly
// empty plane — then the kd-tree nearest-station check as the
// residual filter (Observation 2.2: only the nearest station can be
// heard at p) and an O(1) cell classification in that station's QDS.
// Without the index it is the kd-tree plus classification alone.
// Answers are identical either way, and identical to LocateScan's
// full scan over every station. The hot path performs no allocations.
//
//sinr:hotpath
func (l *Locator) Locate(p geom.Point) Location {
	if l.sx != nil {
		if !l.sx.Covers(p.X, p.Y) {
			// No station's cover box contains p, so every QDS would
			// classify it T-: certified H- in one cell lookup.
			return Location{Kind: NoReception}
		}
		idx, _, ok := l.tree.Nearest(p)
		if !ok {
			return Location{Kind: NoReception}
		}
		if !l.sx.Contains(int32(idx), p.X, p.Y) {
			// p is in some station's box, but not the nearest's: its
			// QDS would classify p T- (the box covers every non-T-
			// cell), and by Observation 2.2 nobody else can be heard.
			return Location{Kind: NoReception}
		}
		return l.classify(idx, p)
	}
	idx, _, ok := l.tree.Nearest(p)
	if !ok {
		return Location{Kind: NoReception}
	}
	return l.classify(idx, p)
}

// classify maps station idx's QDS cell answer for p to a Location.
func (l *Locator) classify(idx int, p geom.Point) Location {
	switch l.qds[idx].Classify(p) {
	case TPlus:
		return Location{Kind: Reception, Station: idx}
	case TQuestion:
		return Location{Kind: Uncertain, Station: idx}
	default:
		return Location{Kind: NoReception}
	}
}

// LocateScan answers the same query as Locate by scanning every
// station: a linear nearest-station pass (ties broken toward the
// lowest index, the kd-tree's convention) followed by that station's
// QDS classification. It is the O(n) pre-index baseline kept for
// benchmarking (experiment E18) and for the property tests that pin
// Locate's answers to it point-for-point.
//
//sinr:hotpath
func (l *Locator) LocateScan(p geom.Point) Location {
	if len(l.net.stations) == 0 {
		return Location{Kind: NoReception}
	}
	best, bestD2 := 0, geom.Dist2(l.net.stations[0], p)
	for i := 1; i < len(l.net.stations); i++ {
		if d2 := geom.Dist2(l.net.stations[i], p); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return l.classify(best, p)
}

// LocateExact resolves a query exactly: it uses the fast path of
// Locate and falls back to one direct SINR evaluation (O(n)) only for
// points landing in an uncertainty ring. This is the natural way
// downstream users consume the structure: O(log n) for all but an
// eps-fraction of the plane.
func (l *Locator) LocateExact(p geom.Point) Location {
	return l.ResolveUncertain(l.Locate(p), p)
}

// ResolveUncertain turns an approximate answer for p into an exact
// one: an Uncertain (H?) answer is settled by one direct SINR
// evaluation of the candidate station, while H+ and H- answers pass
// through unchanged. It is the single exact-fallback code path behind
// LocateExact, Locator.HeardBy and every exact-fallback resolver —
// any H? handling outside it is a bug.
func (l *Locator) ResolveUncertain(loc Location, p geom.Point) Location {
	if loc.Kind != Uncertain {
		return loc
	}
	if l.net.Heard(loc.Station, p) {
		return Location{Kind: Reception, Station: loc.Station}
	}
	return Location{Kind: NoReception}
}

// SpatialIndex returns the sharded spatial index of the locator, or
// nil when the build disabled it (BuildOptions.NoSpatialIndex).
func (l *Locator) SpatialIndex() *shardindex.Index { return l.sx }

// Network returns the network the locator was built for.
func (l *Locator) Network() *Network { return l.net }

// NumStations returns the station count of the underlying network.
func (l *Locator) NumStations() int { return len(l.net.stations) }

// Station returns the location of station i of the underlying network.
func (l *Locator) Station(i int) geom.Point { return l.net.stations[i] }

// HeardBy reports the station heard at p via the Theorem 3 fast path,
// falling back to one exact SINR evaluation only for points landing in
// an uncertainty ring (LocateExact). A Locator therefore satisfies the
// same reception-model shape as Network (NumStations/HeardBy, e.g.
// raster.Model) and can stand in for it when rasterizing figures.
func (l *Locator) HeardBy(p geom.Point) (int, bool) {
	loc := l.LocateExact(p)
	if loc.Kind != Reception {
		return 0, false
	}
	return loc.Station, true
}

// NaiveLocate is the O(n^2)-flavored baseline the paper mentions:
// evaluate the SINR of every station at p (each evaluation is O(n))
// and report the heard station, if any.
func (n *Network) NaiveLocate(p geom.Point) Location {
	if i, ok := n.HeardBy(p); ok {
		return Location{Kind: Reception, Station: i}
	}
	return Location{Kind: NoReception}
}

// VoronoiLocate is the O(n) baseline: identify the unique candidate
// station (Observation 2.2), then one direct SINR evaluation. Under
// uniform power the candidate is the nearest station; the tree
// parameter lets callers amortize that index, and nil builds a
// throwaway one (turning the query into the O(n log n)-preprocessed,
// O(n)-query algorithm of the paper's introduction). Under per-station
// powers the candidate is the strongest-signal station (Strongest; the
// tree is unused). For beta <= 1 several stations may be heard, so the
// answer comes from the scan (NaiveLocate). Answers equal HeardBy's on
// every point.
func (n *Network) VoronoiLocate(p geom.Point, tree *kdtree.Tree) Location {
	if n.beta <= 1 {
		return n.NaiveLocate(p)
	}
	var idx int
	var ok bool
	if n.uniform {
		if tree == nil {
			tree = kdtree.New(n.stations)
		}
		idx, _, ok = tree.Nearest(p)
	} else {
		idx, ok = n.Strongest(p)
	}
	if ok && n.Heard(idx, p) {
		return Location{Kind: Reception, Station: idx}
	}
	return Location{Kind: NoReception}
}
