package kdtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Tree is an immutable 2-d tree over a fixed point set. The zero value
// is an empty tree; use New to build one.
type Tree struct {
	nodes []node
	root  int
}

type node struct {
	p           geom.Point
	idx         int // index into the original point slice
	axis        int // 0: split on X, 1: split on Y
	left, right int // node indices, -1 for none
}

// New builds a balanced kd-tree over pts in O(n log n). The tree keeps
// its own copy of the coordinates; indices returned by queries refer
// to positions in the input slice.
func New(pts []geom.Point) *Tree {
	t := &Tree{root: -1}
	if len(pts) == 0 {
		return t
	}
	items := make([]node, len(pts))
	for i, p := range pts {
		items[i] = node{p: p, idx: i}
	}
	t.nodes = make([]node, 0, len(pts))
	t.root = t.build(items, 0)
	return t
}

func (t *Tree) build(items []node, axis int) int {
	if len(items) == 0 {
		return -1
	}
	sort.Slice(items, func(i, j int) bool {
		if axis == 0 {
			return items[i].p.X < items[j].p.X
		}
		return items[i].p.Y < items[j].p.Y
	})
	mid := len(items) / 2
	n := items[mid]
	n.axis = axis
	// Reserve our slot before recursing so child pointers are stable.
	self := len(t.nodes)
	t.nodes = append(t.nodes, n)
	left := t.build(items[:mid], 1-axis)
	right := t.build(items[mid+1:], 1-axis)
	t.nodes[self].left = left
	t.nodes[self].right = right
	return self
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.nodes) }

// Nearest returns the index (into the slice passed to New) of the
// point closest to q and its distance. ok is false for an empty tree.
// Exact distance ties are broken toward the lowest original index, so
// the answer agrees with a linear scan in input order (and hence with
// Network.HeardBy's lowest-index convention on equidistant points).
//
//sinr:hotpath
func (t *Tree) Nearest(q geom.Point) (idx int, dist float64, ok bool) {
	if t == nil || t.root < 0 {
		return 0, 0, false
	}
	best := -1
	bestD2 := math.Inf(1)
	t.search(t.root, q, &best, &bestD2)
	return best, math.Sqrt(bestD2), true
}

//sinr:hotpath
func (t *Tree) search(ni int, q geom.Point, best *int, bestD2 *float64) {
	n := &t.nodes[ni]
	if d2 := geom.Dist2(n.p, q); d2 < *bestD2 || (d2 == *bestD2 && n.idx < *best) {
		*bestD2 = d2
		*best = n.idx
	}
	var delta float64
	if n.axis == 0 {
		delta = q.X - n.p.X
	} else {
		delta = q.Y - n.p.Y
	}
	near, far := n.left, n.right
	if delta > 0 {
		near, far = n.right, n.left
	}
	if near >= 0 {
		t.search(near, q, best, bestD2)
	}
	// <= so an equal-distance point with a lower index on the far side
	// is still visited.
	if far >= 0 && delta*delta <= *bestD2 {
		t.search(far, q, best, bestD2)
	}
}

// NearestMapped returns the point minimizing (distance, mapped index)
// among the points remap accepts, reporting the mapped index and the
// squared distance. remap(i) translates a tree index (into the slice
// passed to New) to the caller's current index space and reports
// whether the point still exists there; rejected points are skipped.
//
// The scheduler's slots query this way: a tree built over every
// link's sender (or receiver) answers for the links currently in a
// slot, with a remap that keeps each index and rejects links outside
// the slot. Ties are broken toward the lowest mapped index, so — as
// long as remap preserves the base order — the answer agrees with
// Nearest on a tree built from scratch over the mapped points.
//
//sinr:hotpath
func (t *Tree) NearestMapped(q geom.Point, remap func(int) (int, bool)) (mapped int, d2 float64, ok bool) {
	if t == nil || t.root < 0 {
		return 0, 0, false
	}
	best := -1
	bestD2 := math.Inf(1)
	t.searchMapped(t.root, q, remap, &best, &bestD2)
	if best < 0 {
		return 0, 0, false
	}
	return best, bestD2, true
}

//sinr:hotpath
func (t *Tree) searchMapped(ni int, q geom.Point, remap func(int) (int, bool), best *int, bestD2 *float64) {
	n := &t.nodes[ni]
	if m, ok := remap(n.idx); ok {
		if d2 := geom.Dist2(n.p, q); d2 < *bestD2 || (d2 == *bestD2 && (*best < 0 || m < *best)) {
			*bestD2 = d2
			*best = m
		}
	}
	var delta float64
	if n.axis == 0 {
		delta = q.X - n.p.X
	} else {
		delta = q.Y - n.p.Y
	}
	near, far := n.left, n.right
	if delta > 0 {
		near, far = n.right, n.left
	}
	if near >= 0 {
		t.searchMapped(near, q, remap, best, bestD2)
	}
	// <= so an equal-distance point with a lower mapped index on the
	// far side is still visited.
	if far >= 0 && delta*delta <= *bestD2 {
		t.searchMapped(far, q, remap, best, bestD2)
	}
}
