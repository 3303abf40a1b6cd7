package main

import (
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// smoke shrinks a shape to a size that runs in well under a second;
// the leak test uses it.
func (s shape) smoke() shape {
	switch s.name {
	case "locator-uniform":
		s.n, s.eps = 16, 0.3
	case "dense-boundary":
		s.n = 400
	case "churn-power":
		s.n, s.patchRate = 64, 50
	}
	s.bodies, s.setups = 8, 2
	return s
}

// assertGone checks that nothing a run started is left: every listener
// it opened refuses connections and the goroutine count is back to the
// value taken before the run.
func assertGone(t *testing.T, addrs []string, goroutines int) {
	t.Helper()
	if len(addrs) == 0 {
		t.Fatal("the run reported no listener")
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", a)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left, %d before the run:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// smoke runs one workload at smoke size and returns the addresses of
// the servers it started.
func smoke(ctx context.Context, name string, trace bool, seconds float64) ([]string, *result, error) {
	var mu sync.Mutex
	var addrs []string
	res, err := run(ctx, config{
		shape: shapes[name].smoke(), seed: 3, seconds: seconds, trace: trace,
		listening: func(a string) {
			mu.Lock()
			addrs = append(addrs, a)
			mu.Unlock()
		},
	}, io.Discard)
	mu.Lock()
	defer mu.Unlock()
	return addrs, res, err
}

func TestRunsLeaveNothingRunning(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				before := runtime.NumGoroutine()
				addrs, res, err := smoke(context.Background(), name, trace, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
				}
				if _, err := res.json(); err != nil {
					t.Error(err)
				}
				assertGone(t, addrs, before)
			})
		}
	}
}

func TestCancelledRunsLeaveNothingRunning(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			addrs, res, err := smoke(ctx, name, false, 5)
			if err == nil {
				t.Fatalf("a run cancelled mid-window succeeded: %+v", res)
			}
			assertGone(t, addrs, before)
		})
	}
}

func TestSelfTimesClipChildrenToTheParent(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},   // overlaps the first child
		{id: 4, parent: 1, start: 200, end: 300}, // replayed after the parent
	}
	self := selfTimes(spans)
	if got := self[1]; got != 60 {
		t.Errorf("parent self time %d, want 60", got)
	}
	if got := self[4]; got != 100 {
		t.Errorf("leaf self time %d, want 100", got)
	}
}
