package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/trace"
)

// route indexes the server's instrumented endpoints — the fixed label
// vocabulary of the per-route metrics, resolved at registration so
// the per-request cost is an array index, not a map lookup.
type route int

const (
	routeNetworks route = iota // POST/GET /v1/networks
	routeSpec                  // GET /v1/networks/{name}
	routeDelete                // DELETE /v1/networks/{name}
	routePatch                 // PATCH /v1/networks/{name}
	routeSchedule              // POST /v1/networks/{name}/schedule
	routeLocate                // POST /v1/locate
	routeStream                // POST /v1/locate/stream
	routeHealth                // GET /healthz
	routeReady                 // GET /readyz
	routeMetrics               // GET /metrics
	routeDebug                 // GET /debug/requests
	numRoutes
)

var routeNames = [numRoutes]string{
	"networks", "spec", "delete", "patch", "schedule", "locate", "stream", "healthz", "readyz", "metrics", "debug",
}

// reconcileTraceRoute is the flight-recorder lane for controller sync
// passes — not an HTTP route, but traced like one.
const reconcileTraceRoute = "reconcile"

// recorderRoutes returns the flight-recorder lane names: one per HTTP
// route plus the reconcile lane, indexed so lane i == route i.
func recorderRoutes() []string {
	return append(routeNames[:numRoutes:numRoutes], reconcileTraceRoute)
}

// Flight-recorder sizing: per route, keep the slowest flightSlowN
// completed traces plus the flightErrN most recent errored/shed ones.
const (
	flightSlowN = 8
	flightErrN  = 8
)

// codeClass buckets response statuses for the request counters. 429
// gets its own class: it is the admission-control shed signal, and
// folding it into 4xx would hide exactly the number operators watch.
type codeClass int

const (
	class2xx codeClass = iota
	class3xx
	class4xx
	class429
	class5xx
	numClasses
)

var classNames = [numClasses]string{"2xx", "3xx", "4xx", "429", "5xx"}

func classOf(status int) codeClass {
	switch {
	case status == http.StatusTooManyRequests:
		return class429
	case status >= 500:
		return class5xx
	case status >= 400:
		return class4xx
	case status >= 300:
		return class3xx
	default:
		return class2xx
	}
}

// epochLagBounds buckets how many generations behind the latest a
// request's pinned snapshot was by the time it answered — 0 for the
// steady state, small integers while a swap or PATCH races traffic.
var epochLagBounds = []float64{0, 1, 2, 4, 8, 16}

// serveMetrics is the server's metric surface: every instrument the
// handlers record into, resolved to direct pointers at construction
// so the hot path touches only atomics.
type serveMetrics struct {
	reg *metrics.Registry

	requests [numRoutes][numClasses]*metrics.Counter // sinr_http_requests_total
	latency  [numRoutes]*metrics.Histogram           // sinr_http_request_seconds
	inflight *metrics.Gauge                          // sinr_http_inflight
	queued   *metrics.Gauge                          // sinr_admission_queued
	shed     [numRoutes]*metrics.Counter             // sinr_admission_shed_total

	queries        [resolve.NumKinds]*metrics.Counter   // sinr_locate_queries_total
	resolveSeconds [resolve.NumKinds]*metrics.Histogram // sinr_resolve_seconds
	epochLag       *metrics.Histogram                   // sinr_locate_epoch_lag

	schedRequests [sched.NumKinds]*metrics.Counter   // sinr_schedule_requests_total
	schedSeconds  [sched.NumKinds]*metrics.Histogram // sinr_schedule_seconds
	schedResults  [numSchedPaths]*metrics.Counter    // sinr_schedule_results_total
}

// schedPathNames label how a schedule answer was produced; dense
// indices for the per-path result counters.
var schedPathNames = [...]string{"computed", "repaired", "cached"}

const numSchedPaths = len(schedPathNames)

func schedPathIdx(path string) int {
	for i, p := range schedPathNames {
		if p == path {
			return i
		}
	}
	return 0
}

// schedKindIdx maps a scheduler Kind to its metric-array slot,
// clamping unknown values to 0 rather than indexing out of bounds.
func schedKindIdx(k sched.Kind) int {
	if i := int(k); i >= 0 && i < sched.NumKinds {
		return i
	}
	return 0
}

func newServeMetrics(resolvers *flightCache[resolverKey, resolve.Resolver], schedules *flightCache[schedKey, *schedResult]) *serveMetrics {
	reg := metrics.NewRegistry()
	m := &serveMetrics{reg: reg}
	for rt := route(0); rt < numRoutes; rt++ {
		for cl := codeClass(0); cl < numClasses; cl++ {
			m.requests[rt][cl] = reg.Counter("sinr_http_requests_total",
				"HTTP requests by route and status class.",
				metrics.L("route", routeNames[rt]), metrics.L("code", classNames[cl]))
		}
		m.latency[rt] = reg.Histogram("sinr_http_request_seconds",
			"HTTP request latency by route.", nil, metrics.L("route", routeNames[rt]))
		m.shed[rt] = reg.Counter("sinr_admission_shed_total",
			"Requests rejected by admission control (429 shed or drain 503) by route.",
			metrics.L("route", routeNames[rt]))
	}
	m.inflight = reg.Gauge("sinr_http_inflight", "Requests currently being served.")
	m.queued = reg.Gauge("sinr_admission_queued",
		"Queries queued for a per-network concurrency slot (global, all networks).")
	for k := 0; k < resolve.NumKinds; k++ {
		name := resolve.Kind(k).String()
		m.queries[k] = reg.Counter("sinr_locate_queries_total",
			"Individual point queries answered, by resolver backend.",
			metrics.L("resolver", name))
		m.resolveSeconds[k] = reg.Histogram("sinr_resolve_seconds",
			"Server-side batch resolve wall time, by resolver backend.", nil,
			metrics.L("resolver", name))
	}
	m.epochLag = reg.Histogram("sinr_locate_epoch_lag",
		"Generations the answering snapshot was behind the newest at response time.",
		epochLagBounds)
	for k := 0; k < sched.NumKinds; k++ {
		name := sched.Kind(k).String()
		m.schedRequests[k] = reg.Counter("sinr_schedule_requests_total",
			"Schedule requests answered, by scheduler kind.",
			metrics.L("scheduler", name))
		m.schedSeconds[k] = reg.Histogram("sinr_schedule_seconds",
			"Server-side schedule answer wall time (including cache hits), by scheduler kind.", nil,
			metrics.L("scheduler", name))
	}
	for i, path := range schedPathNames {
		m.schedResults[i] = reg.Counter("sinr_schedule_results_total",
			"Schedule answers by production path: computed fresh, repaired from a superseded generation, or served from cache.",
			metrics.L("path", path))
	}
	reg.CounterFunc("sinr_schedule_cache_hits_total",
		"Schedule cache hits (current-generation answers without a build).",
		func() uint64 { return uint64(schedules.hits.Load()) })
	reg.CounterFunc("sinr_schedule_cache_builds_total",
		"Schedule builds started (fresh computes plus repairs).",
		func() uint64 { return uint64(schedules.builds.Load()) })
	reg.CounterFunc("sinr_schedule_cache_repairs_total",
		"Schedule builds that repaired a superseded schedule instead of recomputing.",
		m.schedResults[schedPathIdx("repaired")].Value)
	reg.GaugeFunc("sinr_schedule_cache_entries",
		"Schedules currently cached or building.",
		func() float64 { return float64(schedules.Len()) })

	reg.CounterFunc("sinr_resolver_cache_hits_total",
		"Resolver cache hits: locator and UDG requests served a cached resolver, including joins of another request's successful build.",
		func() uint64 { return uint64(resolvers.hits.Load()) })
	reg.CounterFunc("sinr_resolver_cache_misses_total",
		"Resolver cache misses, i.e. resolver builds started.",
		func() uint64 { return uint64(resolvers.builds.Load()) })
	reg.CounterFunc("sinr_resolver_cache_evicted_total",
		"Resolver cache LRU capacity evictions.",
		func() uint64 { return uint64(resolvers.evicted.Load()) })
	reg.CounterFunc("sinr_resolver_cache_invalidated_total",
		"Resolver cache entries dropped for superseded or deleted network generations.",
		func() uint64 { return uint64(resolvers.dropped.Load()) })
	reg.GaugeFunc("sinr_resolver_cache_entries",
		"Resolvers currently cached or building.",
		func() float64 { return float64(resolvers.Len()) })

	metrics.RegisterGoRuntime(reg)
	return m
}

// registerNetworkGauges publishes the per-network generation gauges.
// Idempotent: re-registering a name keeps the first closures, which
// read through the long-lived entry and so always see the newest
// snapshot.
func (m *serveMetrics) registerNetworkGauges(name string, entry *netEntry) {
	label := metrics.L("network", name)
	m.reg.GaugeFunc("sinr_network_epoch",
		"Current dynamic-engine epoch of the network's served snapshot.",
		func() float64 {
			if snap := entry.snap.Load(); snap != nil && snap.epoch != nil {
				return float64(snap.epoch.Epoch())
			}
			return 0
		}, label)
	m.reg.GaugeFunc("sinr_network_version",
		"Current registry generation (registrations + deltas) of the network.",
		func() float64 {
			if snap := entry.snap.Load(); snap != nil {
				return float64(snap.version)
			}
			return 0
		}, label)
	m.reg.GaugeFunc("sinr_network_stations",
		"Stations in the network's served snapshot.",
		func() float64 {
			if snap := entry.snap.Load(); snap != nil {
				return float64(snap.net.NumStations())
			}
			return 0
		}, label)
}

// unregisterNetworkGauges drops the per-network generation gauges —
// the delete-path counterpart of registerNetworkGauges, without which
// a scrape would report versions and station counts for networks that
// no longer exist, forever.
func (m *serveMetrics) unregisterNetworkGauges(name string) {
	label := metrics.L("network", name)
	m.reg.Unregister("sinr_network_epoch", label)
	m.reg.Unregister("sinr_network_version", label)
	m.reg.Unregister("sinr_network_stations", label)
}

// observeResolve records a batch-resolve duration, attaching the
// request's trace as a bucket exemplar when the handler ran under the
// middleware (tr nil otherwise, e.g. in unit tests).
func (s *Server) observeResolve(ki int, secs float64, tr *trace.Trace) {
	if tr != nil && !tr.ID.IsZero() {
		s.m.resolveSeconds[ki].ObserveEx(secs, [16]byte(tr.ID), tr.Network)
		return
	}
	s.m.resolveSeconds[ki].Observe(secs)
}

// observeSched is observeResolve's schedule-endpoint counterpart.
func (s *Server) observeSched(ki int, secs float64, tr *trace.Trace) {
	if tr != nil && !tr.ID.IsZero() {
		s.m.schedSeconds[ki].ObserveEx(secs, [16]byte(tr.ID), tr.Network)
		return
	}
	s.m.schedSeconds[ki].Observe(secs)
}

// dropExemplars invalidates every histogram exemplar owned by the
// named network — the exemplar counterpart of unregisterNetworkGauges:
// without it a scrape could keep pointing at traces of a deleted
// network indefinitely.
func (m *serveMetrics) dropExemplars(name string) {
	for rt := route(0); rt < numRoutes; rt++ {
		m.latency[rt].DropExemplars(name)
	}
	for k := 0; k < resolve.NumKinds; k++ {
		m.resolveSeconds[k].DropExemplars(name)
	}
	for k := 0; k < sched.NumKinds; k++ {
		m.schedSeconds[k].DropExemplars(name)
	}
}

// kindIdx maps a Kind to its metric-array slot, clamping unknown
// values to 0 (exact) rather than indexing out of bounds.
func kindIdx(k resolve.Kind) int {
	if i := int(k); i >= 0 && i < resolve.NumKinds {
		return i
	}
	return 0
}

// statusWriter wraps the real ResponseWriter to capture the status
// code and byte count for the middleware; Unwrap keeps
// http.ResponseController (the stream handler's full-duplex and flush
// path) working through the wrapper. Instances are pooled so the
// steady-state request path allocates nothing — and because the
// request trace is embedded by value, its span buffer rides the same
// pool: span recording reuses storage across requests for free.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	tr     trace.Trace
}

// traceOf recovers the request trace from the middleware's wrapper.
// Handlers invoked outside instrument (unit tests driving them with a
// bare httptest recorder) get nil, which every trace method accepts.
func traceOf(w http.ResponseWriter) *trace.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return &sw.tr
	}
	return nil
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) reset(inner http.ResponseWriter) {
	w.ResponseWriter = inner
	w.status = 0
	w.bytes = 0
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// formatRequestID renders the X-Request-Id wire form of one (prefix,
// seq) identity — the same pair whose big-endian concatenation is the
// request's 16-byte trace ID, so logs and traces correlate by
// inspection. Only materialized when access logging is on.
func formatRequestID(prefix, seq uint64) string {
	return fmt.Sprintf("%08x-%06d", uint32(prefix), seq)
}

// instrument wraps h with the observability middleware: the inflight
// gauge, the per-route request counter and latency histogram, the
// request trace (begun from an inbound W3C traceparent when one is
// valid, minted from the server's IDSource otherwise, echoed back as
// a response traceparent, finished and offered to the flight
// recorder), and — when an access logger is configured — a
// per-request ID (echoed as X-Request-Id) and one structured JSON log
// line per request. With logging off the added steady-state work is a
// pool round-trip, the clock reads, a handful of atomics and one
// 55-byte header: per-request, never per-point, which is what keeps
// BenchmarkServeBatch on the CI 0-alloc list with tracing enabled.
func (s *Server) instrument(rt route, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.inflight.Inc()
		sw := swPool.Get().(*statusWriter)
		sw.reset(w)

		seq := s.ids.Next()
		tid := s.ids.TraceID(seq)
		var parent trace.SpanID
		if tp := r.Header.Get("traceparent"); tp != "" {
			if pid, psp, ok := trace.ParseTraceparent(tp); ok {
				tid, parent = pid, psp
			}
		}
		sw.tr.Begin(tid, parent, routeNames[rt])
		sw.Header().Set("Traceparent", trace.FormatTraceparent(tid, s.ids.SpanIDFor(seq)))

		var id string
		if s.opt.AccessLog != nil {
			id = formatRequestID(s.ids.Prefix(), seq)
			sw.Header().Set("X-Request-Id", id)
		}

		h(sw, r)

		status := sw.status
		if status == 0 {
			// The handler wrote nothing (e.g. the client vanished
			// mid-batch); account it as the 200 the empty response
			// implies.
			status = http.StatusOK
		}
		elapsed := sw.tr.Finish(status)
		network := sw.tr.Network
		bytes := sw.bytes
		s.recorder.Offer(int(rt), &sw.tr)
		s.m.latency[rt].ObserveEx(elapsed.Seconds(), [16]byte(tid), network)
		swPool.Put(sw)
		s.m.inflight.Dec()
		s.m.requests[rt][classOf(status)].Inc()

		if lg := s.opt.AccessLog; lg != nil {
			lvl := slog.LevelInfo
			switch {
			case status >= 500:
				lvl = slog.LevelError
			case status >= 400:
				lvl = slog.LevelWarn
			}
			lg.LogAttrs(r.Context(), lvl, "request",
				slog.String("id", id),
				slog.String("trace_id", tid.String()),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", routeNames[rt]),
				slog.Int("status", status),
				slog.Int64("bytes", bytes),
				slog.Duration("elapsed", elapsed),
			)
		}
	}
}

// handleDebugRequests serves the flight recorder: the slowest and most
// recently errored captured traces, as a JSON timeline. Query
// parameters: route=<name> restricts to one route's lane, min=<dur>
// (Go duration syntax, e.g. 50ms) drops faster traces.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	q := r.URL.Query()
	var min time.Duration
	if v := q.Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad min duration %q: %v", v, err)
			return
		}
		min = d
	}
	caps := s.recorder.Snapshot(q.Get("route"), min)
	if caps == nil {
		caps = []trace.Captured{}
	}
	writeJSON(w, http.StatusOK, caps)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.m.reg.Handler().ServeHTTP(w, r)
}

// handleReady answers the readiness probe: 200 while accepting work,
// 503 once draining — the signal that tells a load balancer to stop
// routing here before shutdown starts severing streams.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.ready.Load() {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		return
	}
	w.Header().Set("Retry-After", s.retryAfterSecs)
	writeError(w, http.StatusServiceUnavailable, "draining")
}
