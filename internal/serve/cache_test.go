package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/sched"
)

// joined counts the goroutines parked in a flightCache get on an
// in-flight build. A joined caller's innermost frame is get itself;
// the builder's is its build function.
func joined() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
			strings.Contains(lines[1], "flightCache[...]).get(") {
			n++
		}
	}
	return n
}

// waitFor polls cond until it holds, so a test can release a blocked
// build knowing every caller has joined it rather than arriving after
// it finished.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCacheEvictionLifecycle covers the resolver cache's eviction
// rules directly: in-flight builds survive a capacity squeeze, failed
// builds are retried, and drop removes only the superseded generations
// of its incarnation.
func TestCacheEvictionLifecycle(t *testing.T) {
	c := newFlightCache[resolverKey, resolve.Resolver](1)
	built := func(resolve.Resolver) (resolve.Resolver, error) { return nil, nil }
	a, b := &netEntry{}, &netEntry{}
	key := func(e *netEntry, version uint64) cacheKey[resolverKey] {
		return cacheKey[resolverKey]{net: e, version: version}
	}

	// An in-flight build must not be evicted while a second key churns
	// the LRU past capacity.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.get(key(a, 1), nil, func(resolve.Resolver) (resolve.Resolver, error) {
			close(started)
			<-release
			return nil, nil
		})
	}()
	<-started
	for i := 0; i < 3; i++ {
		if _, _, err := c.get(key(b, uint64(i)), nil, built); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() < 2 {
		t.Fatalf("in-flight build was evicted: cache len %d", c.Len())
	}
	close(release)
	wg.Wait()

	// Once complete, the over-cap survivors age out on the next insert.
	if _, _, err := c.get(key(b, 9), nil, built); err != nil {
		t.Fatal(err)
	}
	if c.Len() > 1 {
		t.Fatalf("completed entries not evicted: cache len %d, cap 1", c.Len())
	}

	// A failed build is dropped so the next get retries it.
	fails := 0
	for i := 0; i < 2; i++ {
		_, _, _ = c.get(key(a, 2), nil, func(resolve.Resolver) (resolve.Resolver, error) {
			fails++
			return nil, fmt.Errorf("boom")
		})
	}
	if fails != 2 {
		t.Fatalf("failed build cached: %d build calls, want 2", fails)
	}

	// drop removes only versions below the cutoff for the incarnation.
	c2 := newFlightCache[resolverKey, resolve.Resolver](8)
	for v := uint64(1); v <= 3; v++ {
		if _, _, err := c2.get(key(a, v), nil, built); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c2.get(key(b, 1), nil, built); err != nil {
		t.Fatal(err)
	}
	c2.drop(a, 3)
	if got := c2.Len(); got != 2 {
		t.Fatalf("after drop: cache len %d, want 2 (a@3 and b@1)", got)
	}
	builds := c2.builds.Load()
	if _, _, err := c2.get(key(a, 3), nil, built); err != nil {
		t.Fatal(err)
	}
	if c2.builds.Load() != builds {
		t.Fatal("current generation was dropped (rebuild observed)")
	}
}

// TestFlightCacheLifecycle runs one set of lifecycle checks over both
// uses of the shared cache, resolvers and schedules. Run with -race
// -count=10.
func TestFlightCacheLifecycle(t *testing.T) {
	net, err := core.NewUniform([]geom.Point{geom.Pt(0, 0)}, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	resolvers := make([]resolve.Resolver, 8)
	schedules := make([]*schedResult, 8)
	for i := range resolvers {
		if resolvers[i], err = resolve.NewExact(net); err != nil {
			t.Fatal(err)
		}
		schedules[i] = &schedResult{version: uint64(i)}
	}
	t.Run("resolver", func(t *testing.T) {
		testFlightLifecycle(t,
			func(e *netEntry, i int) cacheKey[resolverKey] {
				return cacheKey[resolverKey]{e, 1, resolverKey{kind: resolve.KindLocator, eps: 0.1 * float64(i+1)}}
			},
			func(i int) resolve.Resolver { return resolvers[i] })
	})
	t.Run("schedule", func(t *testing.T) {
		testFlightLifecycle(t,
			func(e *netEntry, i int) cacheKey[schedKey] {
				return cacheKey[schedKey]{net: e, params: schedKey{params: sched.Params{LinkLen: float64(i + 1)}}}
			},
			func(i int) *schedResult { return schedules[i] })
	})
}

// testFlightLifecycle checks one instantiation of flightCache; key(e, i)
// is the i-th distinct key of incarnation e and val(i) the i-th
// distinct value.
func testFlightLifecycle[P, V comparable](t *testing.T, key func(e *netEntry, i int) cacheKey[P], val func(i int) V) {
	builder := func(i int) func(V) (V, error) {
		return func(V) (V, error) { return val(i), nil }
	}

	t.Run("in-flight entry survives a capacity squeeze", func(t *testing.T) {
		c := newFlightCache[P, V](1)
		e := &netEntry{}
		started, release := make(chan struct{}), make(chan struct{})
		got := make(chan V, 2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, _ := c.get(key(e, 0), nil, func(V) (V, error) {
				close(started)
				<-release
				return val(0), nil
			})
			got <- v
		}()
		<-started
		for i := 1; i <= 3; i++ {
			if _, _, err := c.get(key(e, i), nil, builder(i)); err != nil {
				t.Fatal(err)
			}
		}
		if c.Len() != 2 {
			t.Fatalf("cache len %d after the squeeze, want 2 (the in-flight entry and the newest)", c.Len())
		}
		// An identical request arriving now joins the build in flight.
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, _ := c.get(key(e, 0), nil, func(V) (V, error) {
				t.Error("identical request started a duplicate build")
				return val(7), nil
			})
			if !hit {
				t.Error("joining a successful build is not counted as a hit")
			}
			got <- v
		}()
		waitFor(t, "the identical request to join", func() bool { return joined() >= 1 })
		close(release)
		wg.Wait()
		for range 2 {
			if v := <-got; v != val(0) {
				t.Errorf("got %v, want the in-flight build's value", v)
			}
		}
		if b := c.builds.Load(); b != 4 {
			t.Errorf("builds = %d, want 4 (one in flight plus three squeezing)", b)
		}
	})

	t.Run("stale entry is rebuilt by exactly one caller", func(t *testing.T) {
		c := newFlightCache[P, V](4)
		k := key(&netEntry{}, 0)
		if _, _, err := c.get(k, nil, builder(0)); err != nil {
			t.Fatal(err)
		}
		// The freshness check is a barrier: all eight callers hold the
		// stale entry before any of them can swap a rebuild in.
		var sawStale sync.WaitGroup
		sawStale.Add(8)
		fresh := func(v V) bool {
			if v == val(0) {
				sawStale.Done()
				sawStale.Wait()
			}
			return v == val(1)
		}
		var rebuilds atomic.Int32
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, err := c.get(k, fresh, func(prev V) (V, error) {
					rebuilds.Add(1)
					if prev != val(0) {
						t.Errorf("rebuild got prev %v, want the stale value", prev)
					}
					return val(1), nil
				})
				if err != nil || v != val(1) {
					t.Errorf("got %v, %v; want the rebuilt value", v, err)
				}
			}()
		}
		wg.Wait()
		if n := rebuilds.Load(); n != 1 {
			t.Errorf("%d rebuilds of one stale entry, want 1", n)
		}
		if h := c.hits.Load(); h != 7 {
			t.Errorf("hits = %d, want 7 (every caller but the rebuilder)", h)
		}
	})

	t.Run("entry dropped in flight is not found after its build", func(t *testing.T) {
		c := newFlightCache[P, V](4)
		e, other := &netEntry{}, &netEntry{}
		if _, _, err := c.get(key(other, 0), nil, builder(2)); err != nil {
			t.Fatal(err)
		}
		started, release := make(chan struct{}), make(chan struct{})
		got := make(chan V, 1)
		go func() {
			v, _, _ := c.get(key(e, 0), nil, func(V) (V, error) {
				close(started)
				<-release
				return val(0), nil
			})
			got <- v
		}()
		<-started
		c.drop(e, math.MaxUint64)
		close(release)
		if v := <-got; v != val(0) {
			t.Errorf("the dropped build's caller got %v, want its value", v)
		}
		v, hit, err := c.get(key(e, 0), nil, builder(1))
		if err != nil || hit || v != val(1) {
			t.Errorf("after the drop: got %v hit=%v err=%v, want a fresh build", v, hit, err)
		}
		if c.Len() != 2 {
			t.Errorf("cache len %d, want 2 (the other incarnation's entry survives)", c.Len())
		}
	})
}

// TestFlightCacheFailedBuild: every caller waiting on a build that
// fails, by returning an error or by panicking, gets its error and
// counts no hit, the entry leaves the cache, and the next get runs
// exactly one new build. A panic reaches every caller, the builder
// included, as an error that wraps errBuildPanicked and names the
// panic value.
func TestFlightCacheFailedBuild(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fail func() (*schedResult, error)
		want func(error) bool
	}{
		{
			name: "error",
			fail: func() (*schedResult, error) { return nil, boom },
			want: func(err error) bool { return errors.Is(err, boom) },
		},
		{
			name: "panic",
			fail: func() (*schedResult, error) { panic("kaboom") },
			want: func(err error) bool {
				return errors.Is(err, errBuildPanicked) && strings.Contains(err.Error(), "kaboom")
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newFlightCache[schedKey, *schedResult](4)
			k := cacheKey[schedKey]{net: &netEntry{}, params: schedKey{params: sched.Params{LinkLen: 1}}}
			var builds atomic.Int32
			started, release := make(chan struct{}), make(chan struct{})
			failing := func(*schedResult) (*schedResult, error) {
				if builds.Add(1) == 1 {
					close(started)
				}
				<-release
				return tc.fail()
			}

			const waiters = 8
			errs := make(chan error, waiters+1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A panic escaping get would crash the test binary;
				// report it as this caller's error instead.
				defer func() {
					if r := recover(); r != nil {
						errs <- fmt.Errorf("get panicked: %v", r)
					}
				}()
				_, _, err := c.get(k, nil, failing)
				errs <- err
			}()
			<-started
			for range waiters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, hit, err := c.get(k, nil, failing)
					if hit {
						t.Error("a waiter on a failed build counted a hit")
					}
					errs <- err
				}()
			}
			waitFor(t, "every waiter to join", func() bool { return joined() >= waiters })
			close(release)
			waitFor(t, "every caller to return", func() bool { return len(errs) == waiters+1 })
			wg.Wait()
			close(errs)
			for err := range errs {
				if !tc.want(err) {
					t.Errorf("caller got %v, want the build's failure", err)
				}
			}
			if n := builds.Load(); n != 1 {
				t.Errorf("%d builds for one failure, want 1", n)
			}
			if h := c.hits.Load(); h != 0 {
				t.Errorf("hits = %d after a failed build, want 0", h)
			}
			if c.Len() != 0 {
				t.Errorf("failed entry still cached: len %d", c.Len())
			}

			ran := 0
			if _, hit, err := c.get(k, nil, func(*schedResult) (*schedResult, error) {
				ran++
				return &schedResult{}, nil
			}); err != nil || hit || ran != 1 {
				t.Errorf("next get: hit=%v err=%v builds=%d, want exactly one new build", hit, err, ran)
			}
		})
	}
}

// TestErrorStatus: a build that panicked is the server's fault (500),
// not the request's (400).
func TestErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errUnknownNetwork, http.StatusNotFound},
		{fmt.Errorf("%w: kaboom", errBuildPanicked), http.StatusInternalServerError},
		{fmt.Errorf("%w (eps 0 < 0.01)", errEpsTooSmall), http.StatusBadRequest},
		{errors.New("sched: no links"), http.StatusBadRequest},
	} {
		if got := errorStatus(tc.err); got != tc.want {
			t.Errorf("errorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestScheduleCacheIncarnationsNeverShare: a schedule build of a
// deleted network that is still in flight when a namesake registers
// never answers for the namesake — the two incarnations of one name
// key separate entries.
func TestScheduleCacheIncarnationsNeverShare(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/networks", registerReq("twice", testStations(t, 6, 93), 0.001, 2)).Body.Close()
	dead := srv.nets["twice"]
	srv.DeleteNetwork("twice")
	postJSON(t, ts, "/v1/networks", registerReq("twice", testStations(t, 6, 94), 0.001, 2)).Body.Close()
	live := srv.nets["twice"]
	if dead == live {
		t.Fatal("re-created network reuses the deleted incarnation")
	}

	params := schedKey{params: sched.Params{LinkLen: 1}}
	deadKey := cacheKey[schedKey]{net: dead, params: params}
	liveKey := cacheKey[schedKey]{net: live, params: params}
	stale, current := &schedResult{version: 1}, &schedResult{version: 1}

	// A request that captured the dead incarnation builds after the
	// re-create (it waited in admission meanwhile).
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = srv.schedules.get(deadKey, nil, func(*schedResult) (*schedResult, error) {
			close(started)
			<-release
			return stale, nil
		})
	}()
	<-started
	fresh := func(r *schedResult) bool { return r.version >= 1 }
	got, hit, err := srv.schedules.get(liveKey, fresh, func(*schedResult) (*schedResult, error) { return current, nil })
	if err != nil || hit || got != current {
		t.Fatalf("live incarnation: got %p hit=%v err=%v, want its own build %p", got, hit, err, current)
	}
	close(release)
	<-done
	got, hit, err = srv.schedules.get(liveKey, fresh, func(*schedResult) (*schedResult, error) {
		t.Error("live entry lost to the dead incarnation's build")
		return current, nil
	})
	if err != nil || !hit || got != current {
		t.Fatalf("live incarnation after the dead build finished: got %p hit=%v err=%v", got, hit, err)
	}
}
