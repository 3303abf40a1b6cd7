package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errBuildPanicked is wrapped by the error a flightCache returns for a
// build that panicked. The fault is the server's, not the request's,
// so handlers answer it with 500.
var errBuildPanicked = errors.New("serve: build panicked")

// cacheKey identifies one cached value: a network incarnation (the
// *netEntry, never the name, which a delete and re-create reuses), a
// generation (0 for values that span generations, such as schedules)
// and the request parameters P.
type cacheKey[P comparable] struct {
	net     *netEntry
	version uint64
	params  P
}

// flight is one cached (possibly still building) value. ready is
// closed once val and err are final; done mirrors the close under the
// cache mutex so eviction can skip in-flight builds without waiting.
type flight[P comparable, V any] struct {
	key   cacheKey[P]
	ready chan struct{}
	done  bool
	val   V
	err   error
}

// flightCache is the server's single-flight LRU cache: one instance
// holds locator and UDG resolvers, another schedules. Its rules:
//
//   - A hit is a completed value that passes the caller's freshness
//     check, served without running the build. Joining another
//     caller's successful build counts as a hit: the caller paid a
//     wait, not a build.
//   - A failed build gives every caller waiting on it its error and
//     leaves the cache, so the next get runs one new build. A build
//     that panics fails the same way, with an error wrapping
//     errBuildPanicked.
//   - LRU eviction removes only completed entries, so an identical
//     request never duplicates an in-flight build; the cache can
//     transiently exceed its capacity under a burst of new keys.
//   - A stale entry (completed, but failing the freshness check) is
//     rebuilt by exactly one caller, which gets the stale value as
//     prev: the baseline a schedule repair starts from.
//   - drop removes matching entries, completed or in flight. Waiters
//     of a dropped build still get its result; later gets cannot.
type flightCache[P comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey[P]]*list.Element
	lru     *list.List // of *flight[P, V], front = most recently used
	builds  atomic.Int64
	hits    atomic.Int64
	evicted atomic.Int64 // LRU evictions (capacity pressure)
	dropped atomic.Int64 // removed by drop (superseded or deleted networks)
}

func newFlightCache[P comparable, V any](capacity int) *flightCache[P, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &flightCache[P, V]{
		cap:     capacity,
		entries: make(map[cacheKey[P]]*list.Element),
		lru:     list.New(),
	}
}

// get returns the value cached under key, running build on a miss or
// when the cached value fails fresh (a nil fresh accepts every value).
// build runs outside the cache lock and receives the stale value it
// replaces, or the zero V on a miss. hit reports whether the value was
// served without this caller running build.
func (c *flightCache[P, V]) get(key cacheKey[P], fresh func(V) bool, build func(prev V) (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		el, ok := c.entries[key]
		if !ok {
			f := &flight[P, V]{key: key, ready: make(chan struct{})}
			c.entries[key] = c.lru.PushFront(f)
			c.evictLocked()
			c.mu.Unlock()
			return c.run(f, v, build) // v is still zero: no prev
		}
		f := el.Value.(*flight[P, V])
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		<-f.ready
		if f.err != nil {
			return v, false, f.err
		}
		if fresh == nil || fresh(f.val) {
			c.hits.Add(1)
			return f.val, true, nil
		}
		// Stale for this caller: swap a new in-flight entry in unless
		// another caller already has, in which case wait on theirs.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*flight[P, V]) == f {
			nf := &flight[P, V]{key: key, ready: make(chan struct{})}
			el.Value = nf
			c.mu.Unlock()
			return c.run(nf, f.val, build)
		}
		c.mu.Unlock()
	}
}

// run executes build for the in-flight entry f and publishes the
// outcome to its waiters. A failed build leaves the cache, unless a
// drop or a newer flight has replaced f already.
func (c *flightCache[P, V]) run(f *flight[P, V], prev V, build func(prev V) (V, error)) (V, bool, error) {
	c.builds.Add(1)
	val, err := recoverBuild(build, prev)
	c.mu.Lock()
	f.val, f.err, f.done = val, err, true
	if err != nil {
		if el, ok := c.entries[f.key]; ok && el.Value.(*flight[P, V]) == f {
			c.lru.Remove(el)
			delete(c.entries, f.key)
		}
	}
	c.mu.Unlock()
	close(f.ready)
	return val, false, err
}

// recoverBuild runs build and turns a panic into an error wrapping
// errBuildPanicked that names the panic value. Without it a panicking
// build would never close its flight's ready channel: every waiter
// would block forever, and eviction, which skips in-flight entries,
// could never free the slot.
func recoverBuild[V any](build func(prev V) (V, error), prev V) (val V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errBuildPanicked, r)
		}
	}()
	return build(prev)
}

// evictLocked removes completed least-recently-used entries until the
// cache is within capacity. Callers hold c.mu.
func (c *flightCache[P, V]) evictLocked() {
	for el := c.lru.Back(); el != nil && len(c.entries) > c.cap; {
		prev := el.Prev()
		if f := el.Value.(*flight[P, V]); f.done {
			c.lru.Remove(el)
			delete(c.entries, f.key)
			c.evicted.Add(1)
		}
		el = prev
	}
}

// drop removes every entry of incarnation net with a version below
// before, completed or in flight: before is the new generation on a
// publish and math.MaxUint64 on a delete.
func (c *flightCache[P, V]) drop(net *netEntry, before uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if f := el.Value.(*flight[P, V]); f.key.net == net && f.key.version < before {
			c.lru.Remove(el)
			delete(c.entries, f.key)
			c.dropped.Add(1)
		}
		el = next
	}
}

// Len returns the number of cached (or building) values.
func (c *flightCache[P, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
