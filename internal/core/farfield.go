package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// FarField decides Network.Heard(i, p) without the O(n) interference
// sum whenever a certified bound settles it. It is a kd-tree over the
// stations whose nodes carry their bounding box and total power. A walk
// for (i, p) sums the stations of near leaves exactly and bounds each
// node far from p by its power over its farthest and nearest box
// distance, which brackets the interference in [L, U]. When e_i clears
// beta*(U+N) or falls below beta*(L+N) by more than the float error
// bound farFieldDelta, that settles the answer; every other case falls
// back to the exact Network.Heard. Answers therefore equal Heard's on
// every point (see decide for the proof).
//
// Only alpha = 2 networks whose coordinates, powers, noise and beta lie
// in the range the proof covers get a tree; NewFarField returns nil for
// the rest. A FarField is immutable and safe for concurrent use.
type FarField struct {
	net   *Network
	nodes []ffNode     // depth-first order
	pts   []geom.Point // station locations in tree order
	pw    []float64    // station powers in tree order; nil under uniform power
	psi   float64      // the common power under uniform power
	pos   []int32      // station index -> tree position
}

// ffNode is one tree node: the stations at tree positions [lo, hi),
// their bounding box and total power. Nodes are laid out depth first,
// so a node's subtree is the index range [k, skip): the first child of
// an inner node is k+1, and a leaf has skip == k+1.
type ffNode struct {
	minX, minY, maxX, maxY float64
	far2                   float64 // p is far when its squared box distance exceeds this
	power                  float64 // float sum of the node's station powers
	lo, hi, skip           int32
}

const (
	// farFieldBucket is the most stations a leaf holds. Leaves are
	// summed exactly; larger ones make fewer nodes to visit. Median
	// splits halve, so a leaf holds n/2^k stations: at n = 10^4, 48
	// gives leaves of 39 and 32 gives leaves of 20, and 48 measured
	// 10% faster on Theorem 4.1 annulus points (BenchmarkFarField).
	farFieldBucket = 48
	// farFieldDelta is the relative margin by which the bound must clear
	// beta; decide shows it exceeds every rounding error of the bound.
	farFieldDelta = 1e-6
	// farFieldMaxStations bounds n for the summation error terms.
	farFieldMaxStations = 1 << 28
	// farFieldRange bounds coordinates, powers, noise and beta (and
	// 1/farFieldRange bounds powers and beta below), so no float
	// quantity of the proof overflows or underflows.
	farFieldRange = 0x1p100
	// farFieldHuge bounds e_i and U; larger values (p on a station, an
	// overflowed sum) take the exact path.
	farFieldHuge = 0x1p800
	// farFieldTiny is the least squared box distance of a far node, so
	// that the distances the proof bounds are normal floats.
	farFieldTiny = 0x1p-800
)

// NewFarField builds the far-field tree of net in O(n log n): median
// splits on the wider side of each node's box, by quickselect, down to
// leaves of at most farFieldBucket stations. It returns nil when the
// certified bound does not cover net: alpha != 2, more than 2^28
// stations, or a coordinate, power, noise or beta outside the range
// [2^-100, 2^100] in magnitude (noise may be 0).
func NewFarField(net *Network) *FarField {
	if !farFieldCovers(net) {
		return nil
	}
	n := len(net.stations)
	b := ffBuilder{net: net, ents: make([]ffEntry, n)}
	for i, s := range net.stations {
		b.ents[i] = ffEntry{s, int32(i)}
	}
	b.nodes = make([]ffNode, 0, 4*(n/farFieldBucket)+1)
	b.node(0, n)

	f := &FarField{net: net, nodes: b.nodes, pts: make([]geom.Point, n), pos: make([]int32, n)}
	if net.uniform {
		f.psi = net.powers[0]
	} else {
		f.pw = make([]float64, n)
	}
	for k, e := range b.ents {
		f.pts[k] = e.pt
		f.pos[e.id] = int32(k)
		if f.pw != nil {
			f.pw[k] = net.powers[e.id]
		}
	}
	return f
}

// farFieldCovers reports whether net lies in the range decide's proof
// covers.
func farFieldCovers(net *Network) bool {
	inRange := func(v float64) bool { return v >= 1/farFieldRange && v <= farFieldRange }
	if net.alpha != 2 || len(net.stations) > farFieldMaxStations ||
		!(net.noise <= farFieldRange) || !inRange(net.beta) {
		return false
	}
	for j, s := range net.stations {
		if !(math.Abs(s.X) <= farFieldRange && math.Abs(s.Y) <= farFieldRange) || !inRange(net.powers[j]) {
			return false
		}
	}
	return true
}

// ffEntry is a station during the build: its location and index.
type ffEntry struct {
	pt geom.Point
	id int32
}

type ffBuilder struct {
	net   *Network
	ents  []ffEntry // permuted into tree order by node
	nodes []ffNode
}

// node appends the subtree over tree positions [lo, hi).
func (b *ffBuilder) node(lo, hi int) {
	k := len(b.nodes)
	nd := ffNode{minX: math.Inf(1), minY: math.Inf(1), maxX: math.Inf(-1), maxY: math.Inf(-1), lo: int32(lo), hi: int32(hi)}
	for _, e := range b.ents[lo:hi] {
		nd.minX, nd.maxX = min(nd.minX, e.pt.X), max(nd.maxX, e.pt.X)
		nd.minY, nd.maxY = min(nd.minY, e.pt.Y), max(nd.maxY, e.pt.Y)
		nd.power += b.net.powers[e.id]
	}
	w, h := nd.maxX-nd.minX, nd.maxY-nd.minY
	// The far rule: the box diagonal is shorter than p's distance to
	// the box, so a far node's energies lie within a factor 4 of each
	// other. Requiring 2*diagonal^2 < distance^2 settled 2 more points
	// in 100 on annulus points at n = 10^4 but cost 18% more per check.
	nd.far2 = max(w*w+h*h, farFieldTiny)
	b.nodes = append(b.nodes, nd)
	if hi-lo > farFieldBucket {
		mid := lo + (hi-lo)/2
		selectRank(b.ents[lo:hi], mid-lo, h > w, 2*bits.Len(uint(hi-lo)))
		b.node(lo, mid)
		b.node(mid, hi)
	}
	b.nodes[k].skip = int32(len(b.nodes))
}

// selectRank permutes ents so that the entry of rank k by x (by y when
// byY) sits at k, with no larger coordinate before it and no smaller
// one after: quickselect with a median-of-three pivot, finished by a
// sort after budget partitions, so lopsided partitions on adversarial
// input cannot make it quadratic (the build passes 2*log2(m)).
func selectRank(ents []ffEntry, k int, byY bool, budget int) {
	key := func(e ffEntry) float64 {
		if byY {
			return e.pt.Y
		}
		return e.pt.X
	}
	lo, hi := 0, len(ents)-1
	for ; hi > lo; budget-- {
		if budget == 0 {
			slices.SortFunc(ents[lo:hi+1], func(a, b ffEntry) int {
				ka, kb := key(a), key(b)
				switch {
				case ka < kb:
					return -1
				case ka > kb:
					return 1
				}
				return 0
			})
			return
		}
		mid := lo + (hi-lo)/2
		if key(ents[mid]) < key(ents[lo]) {
			ents[mid], ents[lo] = ents[lo], ents[mid]
		}
		if key(ents[hi]) < key(ents[lo]) {
			ents[hi], ents[lo] = ents[lo], ents[hi]
		}
		if key(ents[hi]) < key(ents[mid]) {
			ents[hi], ents[mid] = ents[mid], ents[hi]
		}
		pivot := key(ents[mid])
		i, j := lo, hi
		for i <= j {
			for key(ents[i]) < pivot {
				i++
			}
			for key(ents[j]) > pivot {
				j--
			}
			if i <= j {
				ents[i], ents[j] = ents[j], ents[i]
				i++
				j--
			}
		}
		// [lo, j] <= pivot <= [i, hi], and everything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Heard reports Network.Heard(i, p): the certified far-field decision
// when the bound settles it, the exact interference sum otherwise.
//
//sinr:hotpath
func (f *FarField) Heard(i int, p geom.Point) bool {
	if heard, certain := f.decide(i, p); certain {
		return heard
	}
	return f.net.Heard(i, p)
}

// decide walks the tree for Heard(i, p) and reports the answer with
// certain = true when the interval bound settles it.
//
// Why a certain answer equals Network.Heard(i, p). Write u = 2^-53,
// gamma_k = k*u/(1-k*u), and T for the real sum of the float energies
// e_j (j != i) that Heard's kernel adds in index order into I. Rounding
// is to nearest: an addition or subtraction is off by a relative u at
// most (an underflowing one is exact); a product or quotient also by
// up to 2^-1075 absolute when its result is subnormal; a fused
// multiply-add only removes roundings. farFieldCovers and the guards
// below keep coordinates within 2^100, powers and beta in
// [2^-100, 2^100], noise N <= 2^100, e_i and U <= 2^800, n <= 2^28.
//
//   - Leaves. A leaf station's term is psi_j/geom.Dist2(s_j, p) on the
//     very operands Heard's kernel uses, so it is the same float e_j.
//   - Far nodes. The box is the exact min and max of its stations'
//     coordinates, so every station j of a far node has real squared
//     distance d2_j in [dmin2, dmax2], the real squared distances from
//     p to the box and to its far corner. The computed D = Dist2(s_j, p)
//     takes a relative rounding for each difference, each square and
//     the sum, plus 2^-1074 absolute from the squares:
//     D in [d2_j*(1-u)^4 - 2^-1074, d2_j*(1+u)^4 + 2^-1074]. The same
//     holds for the computed dmin2 and dmax2. A far node has computed
//     dmin2 > 2^-800, so every one of these real distances is over
//     2^-801 and the absolute terms are below 2^-272 of them: each
//     computed distance is within 5u of its real value. Then
//     psi_j/D is in [2^-304, 2^902], a normal float, so e_j is within
//     7u of psi_j/d2_j, and psi_j/dmax2 <= psi_j/d2_j <= psi_j/dmin2.
//   - Node powers. A node's power is a float sum of at most n powers,
//     within gamma_n of its real value P. The two node terms,
//     fl(power/dmax2) and fl(power/dmin2), are normal quotients (power
//     <= 2^128), one more u each. So the node's real share of T lies
//     within a factor 1 +- theta of [its L term, its U term], where
//     theta = 13u + gamma_n + O(u^2).
//   - Sums. L and U are float sums of at most n non-negative terms
//     (the leaf energies and the node terms, in walk order), within
//     gamma_n of their real sums; I is the index-order float sum of
//     the e_j, within gamma_n of T. With the previous bullet,
//     I in [L*(1-phi), U*(1+phi)] with phi = theta + 2*gamma_n +
//     O(u^2) < 1e-7 for n <= 2^28, and I is finite since U <= 2^800.
//   - Final division. Heard answers fl(e_i/fl(I+N)) >= beta, where
//     fl(I+N) is within u of I+N. Heard is claimed when
//     e_i >= fl(fl(beta*fl(U+N))*fl(1+delta)): that product is within
//     4u of beta*(U+N)*(1+delta) (e_i >= 2^-304 absorbs a subnormal
//     one), so beta*fl(I+N) <= beta*(U+N)*(1+phi)*(1+u) <= e_i because
//     delta > phi + 5u; then e_i/fl(I+N) >= beta, and so is its rounding
//     (a zero divisor gives +Inf). Not heard is claimed when
//     e_i < fl(fl(beta*fl(L+N))*fl(1-delta)), a normal product since it
//     exceeds e_i >= 2^-304; then e_i/fl(I+N) < beta*(1-delta)*(1+u)^4/
//     ((1-phi)*(1-u)) <= beta*(1-delta/2) because delta/2 > phi + 5u,
//     and its rounding, at most u above it plus 2^-1075, stays below
//     beta >= 2^-100.
//
// delta = 1e-6 is ten times phi + 5u. Everything else takes Heard:
// a point beyond the range (a NaN coordinate included), e_i = +Inf or
// over 2^800 (p on station i), U over 2^800 (p on a leaf station, or
// an overflowed sum), and SINR within delta of beta.
//
//sinr:hotpath
func (f *FarField) decide(i int, p geom.Point) (heard, certain bool) {
	net := f.net
	if !(math.Abs(p.X) <= farFieldRange && math.Abs(p.Y) <= farFieldRange) {
		return false, false
	}
	e := net.powers[i] / geom.Dist2(net.stations[i], p)
	if !(e <= farFieldHuge) {
		return false, false
	}
	at := f.pos[i]
	var lo, hi float64
	for k := 0; k < len(f.nodes); {
		nd := &f.nodes[k]
		if at < nd.lo || at >= nd.hi {
			var dx, dy float64
			if p.X < nd.minX {
				dx = nd.minX - p.X
			} else if p.X > nd.maxX {
				dx = p.X - nd.maxX
			}
			if p.Y < nd.minY {
				dy = nd.minY - p.Y
			} else if p.Y > nd.maxY {
				dy = p.Y - nd.maxY
			}
			if dmin2 := dx*dx + dy*dy; dmin2 > nd.far2 {
				fx, fy := max(p.X-nd.minX, nd.maxX-p.X), max(p.Y-nd.minY, nd.maxY-p.Y)
				lo += nd.power / (fx*fx + fy*fy)
				hi += nd.power / dmin2
				k = int(nd.skip)
				continue
			}
		}
		if int(nd.skip) == k+1 {
			s := f.leaf(nd.lo, nd.hi, at, p)
			lo += s
			hi += s
		}
		k++
	}
	if !(hi <= farFieldHuge) {
		return false, false
	}
	beta, noise := net.beta, net.noise
	if e >= beta*(hi+noise)*(1+farFieldDelta) {
		return true, true
	}
	if e < beta*(lo+noise)*(1-farFieldDelta) {
		return false, true
	}
	return false, false
}

// leaf sums the energies at p of the stations at tree positions
// [lo, hi), skipping tree position at.
func (f *FarField) leaf(lo, hi, at int32, p geom.Point) float64 {
	if lo <= at && at < hi {
		return f.span(at+1, hi, p, f.span(lo, at, p, 0))
	}
	return f.span(lo, hi, p, 0)
}

// span adds the energies at p of the stations at tree positions
// [lo, hi) to sum.
func (f *FarField) span(lo, hi int32, p geom.Point, sum float64) float64 {
	if f.pw != nil {
		return sumEnergy2(f.pts[lo:hi], f.pw[lo:hi], p, sum)
	}
	for _, s := range f.pts[lo:hi] {
		sum += f.psi / geom.Dist2(s, p)
	}
	return sum
}
