// Command sinrserve runs the query-serving subsystem: a long-running
// HTTP service owning a registry of named networks, answering
// point-location traffic through Theorem 3 locators built on demand
// behind a single-flight LRU cache.
//
// Usage:
//
//	sinrserve [-addr :8080] [-max-locators 8] [-workers 0]
//	          [-default-eps 0.05] [-min-eps 0.01]
//	          [-max-concurrent 0] [-max-queue 128] [-retry-after 1s]
//	          [-drain-timeout 15s] [-stream-drain 5s]
//	          [-spec-dir DIR] [-reconcile-interval 2s] [-max-retries 5]
//	          [-log-requests] [-pprof] [-debug-requests]
//
// The listener is bound before the startup line is printed, and the
// line reports the actual bound address — so -addr 127.0.0.1:0 picks
// a free ephemeral port and scripts (the CI serve-smoke job) can read
// it from stdout instead of guessing ports:
//
//	sinrserve: listening on 127.0.0.1:43627 (...)
//
// Endpoints (see internal/serve):
//
//	POST /v1/networks       register or hot-swap a named network
//	GET  /v1/networks       list registered networks
//	GET  /v1/networks/{name}    canonical spec readback
//	DELETE /v1/networks/{name}  remove a network and its caches
//	PATCH /v1/networks/{name}  apply a station delta to a dynamic network
//	POST /v1/locate         JSON batch of points -> exact answers
//	POST /v1/locate/stream  NDJSON in/out streaming queries
//	GET  /healthz           liveness probe
//	GET  /readyz            readiness probe (503 once draining)
//	GET  /metrics           Prometheus text exposition (OpenMetrics
//	                        with exemplars when the scrape Accepts it)
//	GET  /debug/requests    flight recorder: slowest/errored traces
//	                        (only with -debug-requests)
//	GET  /debug/pprof/      runtime profiles (only with -pprof)
//
// With -spec-dir the process also runs the reconcile controller
// (internal/reconcile): the directory is listed every
// -reconcile-interval, every *.json file is parsed as one declarative
// NetworkSpec (specs are JSON only: a *.yaml or *.yml file counts as
// a spec error), and the live registry is converged to match — files
// appearing become networks, edits land as deltas or rebuilds,
// removed files delete their networks. A network failing to
// build retries with exponential backoff up to -max-retries times,
// then parks until its spec content changes. Controller state is
// visible on /metrics (sinr_reconcile_* and per-network
// sinr_network_drift series).
//
// With -max-concurrent N each network runs at most N queries at once;
// excess queries wait in a global queue of -max-queue, and beyond that
// are shed with 429 and a Retry-After of -retry-after. -log-requests
// emits one structured JSON log line per request on stderr and tags
// responses with X-Request-Id.
//
// The process shuts down gracefully on SIGINT/SIGTERM: readiness
// flips to 503 immediately, the listener stops accepting, in-flight
// batch requests run to completion, and NDJSON streams get a
// -stream-drain grace period before being cancelled; the whole drain
// is bounded by -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/reconcile"
	"repro/internal/serve"
)

// config carries the flag values into run.
type config struct {
	drainTimeout time.Duration
	streamDrain  time.Duration
	logRequests  bool
	specDir      string
	reconcileInt time.Duration
	maxRetries   int
	opt          serve.Options
}

func main() {
	var cfg config
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.opt.MaxLocators, "max-locators", 8, "capacity of the LRU cache of locator and UDG resolvers")
	flag.IntVar(&cfg.opt.Workers, "workers", 0, "worker pool size for builds and batch queries (0 = NumCPU)")
	flag.Float64Var(&cfg.opt.DefaultEps, "default-eps", serve.DefaultEps, "locator eps for requests that omit it")
	flag.Float64Var(&cfg.opt.MinEps, "min-eps", 0.01, "smallest client-supplied eps accepted (builds cost O(n^3/eps))")
	flag.IntVar(&cfg.opt.MaxConcurrent, "max-concurrent", 0, "max concurrently executing queries per network (0 = unlimited)")
	flag.IntVar(&cfg.opt.MaxQueue, "max-queue", 128, "max queries queued across networks before shedding 429s")
	flag.DurationVar(&cfg.opt.RetryAfter, "retry-after", time.Second, "Retry-After hint on shed responses")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "total graceful-shutdown budget after SIGTERM")
	flag.DurationVar(&cfg.streamDrain, "stream-drain", 5*time.Second, "grace period before in-flight streams are cancelled")
	flag.StringVar(&cfg.specDir, "spec-dir", "", "directory of declarative network specs to reconcile (empty = controller off)")
	flag.DurationVar(&cfg.reconcileInt, "reconcile-interval", 2*time.Second, "spec-dir poll/resync period")
	flag.IntVar(&cfg.maxRetries, "max-retries", 5, "consecutive reconcile failures before a network parks terminally")
	flag.BoolVar(&cfg.logRequests, "log-requests", false, "log one structured JSON line per request to stderr")
	flag.BoolVar(&cfg.opt.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.BoolVar(&cfg.opt.EnableDebugRequests, "debug-requests", false, "mount the flight recorder at /debug/requests")
	flag.Parse()

	// Bind before announcing: the printed address is the one actually
	// listening (with -addr host:0 the kernel-assigned port), so a
	// supervisor polling it can never race the bind or pick a port
	// that was taken.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sinrserve:", err)
		os.Exit(1)
	}
	fmt.Printf("sinrserve: listening on %s (max-locators=%d workers=%d default-eps=%g min-eps=%g max-concurrent=%d max-queue=%d spec-dir=%q)\n",
		ln.Addr(), cfg.opt.MaxLocators, cfg.opt.Workers, cfg.opt.DefaultEps, cfg.opt.MinEps,
		cfg.opt.MaxConcurrent, cfg.opt.MaxQueue, cfg.specDir)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, ln, stop); err != nil {
		fmt.Fprintln(os.Stderr, "sinrserve:", err)
		os.Exit(1)
	}
}

// run serves on ln until a signal arrives on stop, then drains: it
// returns nil once in-flight requests, streams and the reconcile
// controller have finished within cfg.drainTimeout.
func run(cfg config, ln net.Listener, stop <-chan os.Signal) error {
	if cfg.logRequests {
		cfg.opt.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	handler := serve.NewServer(cfg.opt)
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Optional controller mode: converge the registry toward the spec
	// directory for the process lifetime, sharing the serving metrics
	// registry so /metrics exposes the reconcile instruments.
	var ctrlDone chan struct{}
	ctrlCtx, ctrlCancel := context.WithCancel(context.Background())
	defer ctrlCancel()
	if cfg.specDir != "" {
		ctrl := reconcile.New(handler, reconcile.Options{
			Dir:        cfg.specDir,
			Interval:   cfg.reconcileInt,
			MaxRetries: cfg.maxRetries,
			Metrics:    handler.Metrics(),
			Recorder:   handler.Recorder(),
			Logger:     log.New(os.Stderr, "", log.LstdFlags),
		})
		ctrlDone = make(chan struct{})
		go func() {
			defer close(ctrlDone)
			ctrl.Run(ctrlCtx)
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		fmt.Printf("sinrserve: %v, draining\n", sig)
		// Drain sequence: readiness flips first so load balancers stop
		// routing; Shutdown closes the listener and waits for in-flight
		// batches; streams get streamDrain to finish naturally before
		// Drain cancels them (they would otherwise block Shutdown
		// forever); drainTimeout bounds the whole affair.
		handler.SetReady(false)
		streamTimer := time.AfterFunc(cfg.streamDrain, handler.Drain)
		defer streamTimer.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Out of budget: cut whatever is left and report it.
			handler.Drain()
			return fmt.Errorf("drain exceeded %v: %w", cfg.drainTimeout, err)
		}
		handler.Drain()
		// The controller drains after the listener: no new requests are
		// arriving, and Run returns only once every in-flight reconcile
		// finished.
		ctrlCancel()
		if ctrlDone != nil {
			<-ctrlDone
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Println("sinrserve: drained")
		return nil
	}
}
