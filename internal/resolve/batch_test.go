package resolve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestResolveWorkersOneFallback pins the WithWorkers(1) contract of
// the batch paths: the serial shard (no goroutines needed) answers
// like the default one-worker-per-CPU batch and like Resolve point by
// point, on the approximate locator and on the exact scan, whose
// flattened answers equal Network.HeardBy's.
func TestResolveWorkersOneFallback(t *testing.T) {
	net := testNetwork(t, 12, 7)
	pts := testQueries(t, net, 600, 171)
	ctx := context.Background()

	newPair := func(kind Kind, opts ...Option) (serial, def Resolver) {
		t.Helper()
		serial, err := New(kind, net, append(opts, WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		def, err = New(kind, net, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return serial, def
	}
	locSerial, locDef := newPair(KindLocator, WithEpsilon(0.4), WithExactFallback(false))
	exactSerial, exactDef := newPair(KindExact)
	for _, pair := range [][2]Resolver{{locSerial, locDef}, {exactSerial, exactDef}} {
		serial, def := batchOf(t, pair[0], pts), batchOf(t, pair[1], pts)
		for i, p := range pts {
			if serial[i] != def[i] {
				t.Fatalf("%v query %d: Workers:1 %v vs default %v", pair[0].Stats().Kind, i, serial[i], def[i])
			}
			if single := pair[0].Resolve(ctx, p); serial[i] != single {
				t.Fatalf("%v query %d: batch %v vs single-point %v", pair[0].Stats().Kind, i, serial[i], single)
			}
		}
	}
	for i, a := range batchOf(t, exactSerial, pts) {
		want := core.NoStationHeard
		if idx, ok := net.HeardBy(pts[i]); ok {
			want = idx
		}
		if got := StationIndex(a); got != want {
			t.Fatalf("exact query %d: got %d, HeardBy says %d", i, got, want)
		}
	}
}

// TestResolveBatchConcurrentCallers hammers one shared locator
// resolver from many goroutines, each running sharded batches — the
// -race target for the batch query path.
func TestResolveBatchConcurrentCallers(t *testing.T) {
	net := testNetwork(t, 10, 13)
	pts := testQueries(t, net, 500, 171)
	serial, err := NewLocator(net, WithEpsilon(0.4), WithExactFallback(false), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewLocator(net, WithEpsilon(0.4), WithExactFallback(false), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	want := batchOf(t, serial, pts)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]core.Location, len(pts))
			for rep := 0; rep < 3; rep++ {
				if err := shared.ResolveBatch(context.Background(), pts, got); err != nil {
					errs <- err
					return
				}
				for i := range pts {
					if got[i] != want[i] {
						errs <- errors.New("concurrent batch answer diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestLocatorExactFallbackBatch checks the exact-fallback batch
// resolves every uncertainty ring: answers match the point-by-point
// Locator.LocateExact and never report H?.
func TestLocatorExactFallbackBatch(t *testing.T) {
	net := testNetwork(t, 8, 99)
	pts := testQueries(t, net, 800, 171)
	r, err := NewLocator(net, WithEpsilon(0.4))
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range batchOf(t, r, pts) {
		if got.Kind == core.Uncertain {
			t.Fatalf("exact-fallback batch left query %d uncertain", i)
		}
		if want := r.Locator().LocateExact(pts[i]); got != want {
			t.Fatalf("query %d: batch %v vs LocateExact %v", i, got, want)
		}
	}
}

// TestResolveStreamOrder feeds a stream longer than one pipeline chunk
// through four workers and checks the answers come back in input
// order, one per point, equal to the serial batch answers.
func TestResolveStreamOrder(t *testing.T) {
	net := testNetwork(t, 8, 5)
	pts := testQueries(t, net, 1500, 171)
	serial, err := NewLocator(net, WithEpsilon(0.4), WithExactFallback(false), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := batchOf(t, serial, pts)
	pooled, err := NewLocator(net, WithEpsilon(0.4), WithExactFallback(false), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range streamOf(t, pooled, pts) {
		if got != want[i] {
			t.Fatalf("stream answer %d: got %v, want %v", i, got, want[i])
		}
	}
}

// TestResolveStreamCancel cancels mid-stream and checks the output
// channel closes rather than wedging the pipeline.
func TestResolveStreamCancel(t *testing.T) {
	net := testNetwork(t, 8, 5)
	r, err := NewLocator(net, WithEpsilon(0.4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan geom.Point)
	out := r.ResolveStream(ctx, in)
	pts := testQueries(t, net, 100, 171)
	go func() {
		for _, p := range pts {
			select {
			case in <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	n := 0
	for range out {
		n++
		if n == 10 {
			cancel()
		}
	}
	if n < 10 {
		t.Fatalf("stream closed after %d answers, before the cancellation point", n)
	}
}

// waitForGoroutines polls until the goroutine count drops to at most
// want or the deadline passes, returning the last observed count.
// Polling absorbs scheduler lag between cancellation and goroutine
// exit.
func waitForGoroutines(want int, deadline time.Duration) int {
	var n int
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// smallLocator builds a locator resolver over a hand-placed network
// small enough that its build is negligible next to the leak checks.
func smallLocator(t *testing.T, stations []geom.Point, noise, beta float64, opts ...Option) *LocatorResolver {
	t.Helper()
	net, err := core.NewUniform(stations, noise, beta)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewLocator(net, append([]Option{WithEpsilon(0.2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResolveStreamCancellationNoLeak cancels an active stream and
// abandons its output channel undrained, then checks every pipeline
// goroutine (reader, workers, emitter) exits. Run with a generous
// margin: other tests' goroutines may still be winding down.
func TestResolveStreamCancellationNoLeak(t *testing.T) {
	r := smallLocator(t, []geom.Point{
		geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(-1, 2.5), geom.Pt(1.5, -2),
	}, 0.01, 3, WithExactFallback(false), WithWorkers(4))

	before := runtime.NumGoroutine()

	const rounds = 8
	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		in := make(chan geom.Point)
		out := r.ResolveStream(ctx, in)

		// Feeder keeps offering points until the pipeline stops taking
		// them; it must also exit once ctx is cancelled.
		go func() {
			defer close(in)
			for i := 0; ; i++ {
				select {
				case <-ctx.Done():
					return
				case in <- geom.Pt(float64(i%7)-3, float64(i%5)-2):
				}
			}
		}()

		// Take a few answers, then cancel mid-flight and abandon out
		// without draining it.
		for i := 0; i < 10; i++ {
			if _, ok := <-out; !ok {
				t.Fatal("stream closed prematurely")
			}
		}
		cancel()
	}

	after := waitForGoroutines(before, 5*time.Second)
	if after > before {
		t.Errorf("goroutines: %d before, %d after %d cancelled streams (pipeline leak)", before, after, rounds)
	}
}

// TestResolveStreamCloseNoLeak is the companion clean-shutdown check:
// closing the input and draining the output must also leave no
// pipeline goroutines behind.
func TestResolveStreamCloseNoLeak(t *testing.T) {
	r := smallLocator(t, []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0)}, 0, 4, WithExactFallback(false))
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan geom.Point, 64)
	for i := 0; i < 64; i++ {
		in <- geom.Pt(float64(i)*0.05-1, 0.1)
	}
	close(in)
	got := 0
	for range r.ResolveStream(ctx, in) {
		got++
	}
	if got != 64 {
		t.Fatalf("drained %d answers, want 64", got)
	}

	after := waitForGoroutines(before, 5*time.Second)
	if after > before {
		t.Errorf("goroutines: %d before, %d after clean shutdown", before, after)
	}
}
