package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/trace"
)

// NoStationHeard is the served sentinel for "no station heard",
// re-exported from core so clients of the wire format and users of the
// library see the same -1 convention.
const NoStationHeard = core.NoStationHeard

// DefaultEps is the locator performance parameter used when a request
// does not specify one — the same default a bare resolve.NewLocator
// uses, so library and server answer alike out of the box.
const DefaultEps = resolve.DefaultEps

// Options configures a Server.
type Options struct {
	// MaxLocators caps the cache of locator and UDG resolvers (default
	// 8). Each cached locator is O(n/eps) memory.
	MaxLocators int
	// DefaultEps is the eps used by requests that omit it (default
	// DefaultEps).
	DefaultEps float64
	// Workers is the worker count for locator builds and batch
	// queries; 0 (or less) means one per schedulable CPU.
	Workers int
	// MaxBatch caps the number of points accepted in one /v1/locate
	// request (default 1<<20).
	MaxBatch int
	// MaxBodyBytes caps request body sizes before decoding (default
	// 64 MiB), so oversized payloads are rejected instead of allocated.
	MaxBodyBytes int64
	// MinEps is the smallest client-supplied eps accepted (default
	// 0.01). Locator builds cost O(n^3/eps) time and O(n/eps) memory,
	// so an unbounded floor would let one request monopolize the
	// server.
	MinEps float64

	// MaxSchedLinks caps the network size accepted by the schedule
	// endpoint (default 1<<17 links). Schedule builds are the most
	// expensive request the server takes; beyond the cap they get 413
	// instead of a slot.
	MaxSchedLinks int
	// MaxSchedules caps the schedule cache (default 32 entries).
	MaxSchedules int

	// MaxConcurrent bounds concurrently executing queries (batch and
	// stream) per network; 0 disables admission control. Each network
	// gets its own slots, so one hot network can never starve
	// another's queries.
	MaxConcurrent int
	// MaxQueue caps queries queued globally (across networks) waiting
	// for a per-network slot; a query beyond it is shed with 429 and
	// a Retry-After hint instead of queueing unboundedly. Default 128
	// when admission is enabled.
	MaxQueue int
	// RetryAfter is the Retry-After hint written on shed responses
	// (default 1s; sub-second values round up to 1s on the wire).
	RetryAfter time.Duration
	// AccessLog, when set, enables structured per-request logging:
	// one record per request with a process-unique request ID (echoed
	// as X-Request-Id), method, route, status, bytes and latency.
	// Leave nil to keep the request path allocation-free.
	AccessLog *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profiling endpoints on a production port are a choice
	// the operator should make explicitly.
	EnablePprof bool
	// EnableDebugRequests mounts the flight recorder at GET
	// /debug/requests. Opt-in for the same reason as EnablePprof:
	// captured traces expose network names, request timings and trace
	// IDs to anyone who can reach the serving port. Traces are
	// recorded either way (DELETE eviction still drops them); only
	// the HTTP surface is gated.
	EnableDebugRequests bool
}

// snapshot is one immutable registered generation of a network.
// Requests capture a snapshot once and serve entirely from it, so a
// concurrent hot swap or PATCH delta never changes answers
// mid-request. kind and radius are the network's registered defaults;
// a request's own "resolver"/"radius" fields override them per query.
// epoch is the dynamic-engine epoch snapshot behind this generation —
// the station set net was materialized from — and resolver, an O(1)
// wrap of it built once by publish and never cached, answers the
// exact, voronoi and dynamic kinds (see resolverFor).
type snapshot struct {
	net      *core.Network
	version  uint64
	kind     resolve.Kind
	radius   float64
	epoch    *dynamic.Snapshot
	resolver resolve.Resolver
	// Declarative identity: the normalized spec this generation serves,
	// its canonical serialization (the GET /v1/networks/{name} readback,
	// byte-stable through create) and the content hash the reconcile
	// differ compares. A PATCH delta re-derives all three from the new
	// epoch so readback never goes stale.
	spec     *NetworkSpec
	specJSON []byte
	specHash string
}

// netEntry is a registry slot for one network name; the snapshot
// pointer is swapped atomically on replacement. mu serializes the
// writers — full re-registrations and PATCH deltas — so version
// numbers are strictly increasing per name; readers never take it.
// dyn is the mutation engine PATCH deltas flow through; a full POST
// replaces it wholesale. sem is the network's admission semaphore
// (nil when admission is disabled); it belongs to the name, not the
// generation, so hot swaps don't reset in-flight accounting.
type netEntry struct {
	snap atomic.Pointer[snapshot]
	mu   sync.Mutex
	dyn  *dynamic.Network
	sem  chan struct{}
}

// Server owns the network registry and its caches and implements
// http.Handler. Create one with NewServer; it is safe for concurrent
// use.
type Server struct {
	opt       Options
	mux       *http.ServeMux
	resolvers *flightCache[resolverKey, resolve.Resolver]
	schedules *flightCache[schedKey, *schedResult]
	m         *serveMetrics
	ids       *trace.IDSource
	recorder  *trace.Recorder

	mu   sync.RWMutex // guards nets map shape and version bumps
	nets map[string]*netEntry

	// Drain state: ready answers /readyz; drainCh closes once Drain
	// is called, cancelling in-flight streams and queued admissions.
	ready          atomic.Bool
	drainCh        chan struct{}
	drainOnce      sync.Once
	retryAfterSecs string
}

// NewServer returns a Server with the given options.
func NewServer(opt Options) *Server {
	if opt.MaxLocators <= 0 {
		opt.MaxLocators = 8
	}
	if opt.DefaultEps <= 0 {
		opt.DefaultEps = DefaultEps
	}
	if opt.Workers < 0 {
		opt.Workers = 0
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 1 << 20
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 64 << 20
	}
	if opt.MinEps <= 0 {
		opt.MinEps = 0.01
	}
	if opt.MaxSchedLinks <= 0 {
		opt.MaxSchedLinks = 1 << 17
	}
	if opt.MaxSchedules <= 0 {
		opt.MaxSchedules = 32
	}
	if opt.MaxConcurrent > 0 && opt.MaxQueue <= 0 {
		opt.MaxQueue = 128
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	s := &Server{
		opt:       opt,
		mux:       http.NewServeMux(),
		resolvers: newFlightCache[resolverKey, resolve.Resolver](opt.MaxLocators),
		schedules: newFlightCache[schedKey, *schedResult](opt.MaxSchedules),
		nets:      make(map[string]*netEntry),
		ids:       trace.NewIDSource(),
		recorder:  trace.NewRecorder(recorderRoutes(), flightSlowN, flightErrN),
		drainCh:   make(chan struct{}),
	}
	s.m = newServeMetrics(s.resolvers, s.schedules)
	s.ready.Store(true)
	// Retry-After is whole seconds on the wire; round sub-second
	// hints up so a shed client never retries inside the same window.
	s.retryAfterSecs = strconv.FormatInt(int64((opt.RetryAfter+time.Second-1)/time.Second), 10)

	s.mux.HandleFunc("/v1/networks", s.instrument(routeNetworks, s.handleNetworks))
	s.mux.HandleFunc("GET /v1/networks/{name}", s.instrument(routeSpec, s.handleGetNetwork))
	s.mux.HandleFunc("DELETE /v1/networks/{name}", s.instrument(routeDelete, s.handleDeleteNetwork))
	s.mux.HandleFunc("PATCH /v1/networks/{name}", s.instrument(routePatch, s.handlePatchNetwork))
	s.mux.HandleFunc("POST /v1/networks/{name}/schedule", s.instrument(routeSchedule, s.handleSchedule))
	s.mux.HandleFunc("/v1/locate", s.instrument(routeLocate, s.handleLocate))
	s.mux.HandleFunc("/v1/locate/stream", s.instrument(routeStream, s.handleLocateStream))
	s.mux.HandleFunc("/healthz", s.instrument(routeHealth, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	s.mux.HandleFunc("/readyz", s.instrument(routeReady, s.handleReady))
	s.mux.HandleFunc("/metrics", s.instrument(routeMetrics, s.handleMetrics))
	if opt.EnableDebugRequests {
		s.mux.HandleFunc("/debug/requests", s.instrument(routeDebug, s.handleDebugRequests))
	}
	if opt.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// SetReady flips the /readyz answer — the hook a supervisor uses to
// pull the replica out of rotation (readiness 503) before starting
// the drain proper, while /healthz keeps reporting liveness.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Drain begins shutdown of long-lived work: /readyz turns 503,
// queries queued in admission are rejected, and in-flight NDJSON
// streams are cancelled so their connections can close. In-flight
// batch requests are NOT cancelled — they run to completion and are
// waited out by http.Server.Shutdown. Idempotent; the caller decides
// the deadline by choosing when to call it (typically a timer after
// SIGTERM, giving streams a grace period to finish naturally).
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.ready.Store(false)
		close(s.drainCh)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// LocatorBuilds returns the number of resolver builds the server has
// started — locator and UDG builds, the only kinds the resolver cache
// holds. A cache-efficiency counter and the single-flight test hook.
func (s *Server) LocatorBuilds() int64 { return s.resolvers.builds.Load() }

// Wire types.

// PointJSON is a point on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// The POST /v1/networks body is NetworkSpec (see spec.go).

// NetworkResponse acknowledges a registration or a PATCH delta.
// Epoch and ApplyPath are set by PATCH responses: Epoch is the
// dynamic-engine epoch (1 on registration, +1 per delta; it tracks
// Version until a re-registration resets it) and ApplyPath says which
// maintenance path the delta took ("incremental" or "rebuild").
type NetworkResponse struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`
	Stations  int    `json:"stations"`
	Resolver  string `json:"resolver"`
	Epoch     uint64 `json:"epoch,omitempty"`
	ApplyPath string `json:"apply_path,omitempty"`
}

// DeltaStationJSON is an arriving station of a PATCH delta. A zero or
// omitted power means the uniform default 1.
type DeltaStationJSON struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Power float64 `json:"power,omitempty"`
}

// PowerUpdateJSON changes the power of one existing station.
type PowerUpdateJSON struct {
	Station int     `json:"station"`
	Power   float64 `json:"power"`
}

// NetworkDeltaRequest is the PATCH /v1/networks/{name} body: a delta
// document applied to the network's current generation. Phases apply
// in order set_power, remove, add; set_power and remove address
// stations by their index in the generation the delta lands on
// (pre-delta indices throughout), removals compact the survivors in
// order, and additions append. In-flight requests keep answering from
// the generation they started on; the response's version is the new
// generation every later request sees.
type NetworkDeltaRequest struct {
	SetPower []PowerUpdateJSON  `json:"set_power,omitempty"`
	Remove   []int              `json:"remove,omitempty"`
	Add      []DeltaStationJSON `json:"add,omitempty"`
}

// delta converts the wire document to the engine's delta.
func (r *NetworkDeltaRequest) delta() dynamic.Delta {
	d := dynamic.Delta{Remove: r.Remove}
	for _, pu := range r.SetPower {
		d.SetPower = append(d.SetPower, dynamic.PowerUpdate{Station: pu.Station, Power: pu.Power})
	}
	for _, st := range r.Add {
		d.Add = append(d.Add, dynamic.Station{Pos: geom.Pt(st.X, st.Y), Power: st.Power})
	}
	return d
}

// WireDelta is the inverse of the PATCH handler's decode: the wire
// document that applies d.
func WireDelta(d dynamic.Delta) NetworkDeltaRequest {
	r := NetworkDeltaRequest{Remove: d.Remove}
	for _, pu := range d.SetPower {
		r.SetPower = append(r.SetPower, PowerUpdateJSON{Station: pu.Station, Power: pu.Power})
	}
	for _, st := range d.Add {
		r.Add = append(r.Add, DeltaStationJSON{X: st.Pos.X, Y: st.Pos.Y, Power: st.Power})
	}
	return r
}

// LocateRequest is the POST /v1/locate body. Resolver picks the
// backend for this request (empty means the network's registered
// default); Eps applies to the locator backend and Radius to the UDG
// backend, both falling back to the network's registered defaults.
type LocateRequest struct {
	Network  string      `json:"network"`
	Resolver string      `json:"resolver,omitempty"`
	Eps      float64     `json:"eps,omitempty"`
	Radius   float64     `json:"radius,omitempty"`
	Points   []PointJSON `json:"points"`
}

// LocateResult is one answer: Kind is "H+" or "H-" (uncertainty rings
// are resolved server-side) and Station is the heard station index or
// NoStationHeard.
type LocateResult struct {
	Kind    string `json:"kind"`
	Station int    `json:"station"`
}

// LocateResponse is the POST /v1/locate reply. Resolver names the
// backend that answered; Eps is the locator performance parameter
// used (0 for non-locator backends).
type LocateResponse struct {
	Network  string         `json:"network"`
	Version  uint64         `json:"version"`
	Resolver string         `json:"resolver"`
	Eps      float64        `json:"eps"`
	Results  []LocateResult `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body capped at limit bytes,
// reporting whether the caller can proceed; on failure the error
// response has been written (see bodyDecoded).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	return bodyDecoded(w, decodeDocument(dec, v))
}

// decodeDocument decodes dec's input into v as exactly one JSON
// document: content after it is rejected, not dropped, so a second
// PATCH delta appended to the first is never half-applied. Trailing
// whitespace reads as io.EOF.
func decodeDocument(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	if err == nil || !errors.As(err, new(*http.MaxBytesError)) {
		err = errors.New("trailing content after the JSON document")
	}
	return err
}

// bodyDecoded reports whether a request body decoded (err is nil);
// otherwise it writes the error response: 413 for a body over its
// cap, 400 for anything else.
func bodyDecoded(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

// handleNetworks serves POST (register/replace) and GET (list).
func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.registerNetwork(w, r)
	case http.MethodGet:
		s.listNetworks(w)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) registerNetwork(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	if !bodyDecoded(w, err) {
		return
	}
	// POST keeps its historical register/replace semantics: every call
	// lands a new generation (hot-swap tests and operators rely on the
	// version bump), so the convergent paths are bypassed.
	res, err := s.applySpec(spec, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, NetworkResponse{
		Name: res.Name, Version: res.Version, Stations: res.Stations, Resolver: res.Resolver,
	})
}

// handleGetNetwork serves GET /v1/networks/{name}: the canonical
// serialization of the spec behind the live generation, byte-for-byte
// what a create with this spec stored. The generation and spec hash
// ride along as headers so pollers can watch for convergence without
// parsing the body.
func (s *Server) handleGetNetwork(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, ok := s.entryFor(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}
	snap := entry.snap.Load()
	if snap == nil || snap.specJSON == nil {
		writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Sinr-Network-Version", strconv.FormatUint(snap.version, 10))
	w.Header().Set("Sinr-Spec-Hash", snap.specHash)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.specJSON)
}

// DeleteResponse acknowledges DELETE /v1/networks/{name}.
type DeleteResponse struct {
	Name    string `json:"name"`
	Deleted bool   `json:"deleted"`
}

// handleDeleteNetwork serves DELETE /v1/networks/{name}: the registry
// slot, every cached resolver and schedule of the name, and its
// per-network gauges all go — see Server.DeleteNetwork.
func (s *Server) handleDeleteNetwork(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.DeleteNetwork(name) {
		writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Name: name, Deleted: true})
}

// handlePatchNetwork applies a delta document to a registered network:
// the dynamic engine absorbs it (incrementally below the churn
// threshold, amortized-rebuild above) and the resulting epoch snapshot
// is hot-swapped in as a new generation. In-flight batches and streams
// finish on the generation they captured; their superseded resolvers
// are released from the cache once the swap lands.
func (s *Server) handlePatchNetwork(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req NetworkDeltaRequest
	if !decodeBody(w, r, s.opt.MaxBodyBytes, &req) {
		return
	}
	delta := req.delta()

	s.mu.RLock()
	entry, ok := s.nets[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}

	tr := traceOf(w)
	tr.SetNetwork(name)
	entry.mu.Lock()
	old := entry.snap.Load()
	if old == nil || entry.dyn == nil {
		// The entry is published to s.nets before its first snapshot
		// and engine are stored (registerNetwork holds entry.mu for
		// that store, not s.mu); a PATCH racing the initial POST of
		// this name can win entry.mu first and must see the network
		// as not-yet-registered rather than Apply on a nil engine.
		entry.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}
	as := tr.Start("dynamic.apply")
	es, err := entry.dyn.Apply(delta)
	tr.End(as)
	if err != nil {
		entry.mu.Unlock()
		writeError(w, http.StatusBadRequest, "invalid delta: %v", err)
		return
	}
	version := old.version + 1
	next := &snapshot{
		net: es.Network(), version: version, kind: old.kind, radius: old.radius, epoch: es,
	}
	// Re-derive the declarative identity from the post-delta station
	// set, so spec readback and the reconcile differ track imperative
	// PATCHes too.
	if old.spec != nil {
		next.spec, next.specJSON, next.specHash = respec(old.spec, es.Network())
	}
	s.publish(entry, next)
	entry.mu.Unlock()

	stats := es.ApplyStats()
	writeJSON(w, http.StatusOK, NetworkResponse{
		Name:      name,
		Version:   version,
		Stations:  es.NumStations(),
		Resolver:  old.kind.String(),
		Epoch:     es.Epoch(),
		ApplyPath: stats.Path.String(),
	})
}

func (s *Server) listNetworks(w http.ResponseWriter) {
	s.mu.RLock()
	out := make([]NetworkResponse, 0, len(s.nets))
	for name, entry := range s.nets {
		if snap := entry.snap.Load(); snap != nil {
			out = append(out, NetworkResponse{
				Name: name, Version: snap.version, Stations: snap.net.NumStations(),
				Resolver: snap.kind.String(),
			})
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// errUnknownNetwork distinguishes 404s from build failures.
var errUnknownNetwork = errors.New("serve: unknown network")

// errEpsTooSmall rejects eps below the server's floor before a build
// can start.
var errEpsTooSmall = errors.New("serve: eps below server minimum")

// resolverSpec is a request's backend selection: the resolver name
// (empty means the network's registered default) and the per-kind
// parameters, zero meaning "use the default".
type resolverSpec struct {
	kind   string
	eps    float64
	radius float64
}

// entryFor returns the registry entry of name, treating a name whose
// first registration has not yet stored its snapshot as unknown (the
// entry is published to s.nets before registerNetwork fills it).
func (s *Server) entryFor(name string) (*netEntry, bool) {
	s.mu.RLock()
	entry, ok := s.nets[name]
	s.mu.RUnlock()
	if !ok || entry.snap.Load() == nil {
		return nil, false
	}
	return entry, true
}

// publish makes next the live generation of entry: it wraps next's
// epoch snapshot as its resolver, swaps the snapshot in, and drops the
// cached resolvers of superseded generations. Every writer — POST
// register/replace, ApplySpec convergence and PATCH — lands here while
// holding entry.mu, so versions stay monotone per incarnation.
func (s *Server) publish(entry *netEntry, next *snapshot) {
	// The wrap cannot fail: NewServer clamps Workers to >= 0 and every
	// generation carries its epoch snapshot.
	next.resolver, _ = resolve.NewDynamicSnapshot(next.epoch, resolve.WithWorkers(s.opt.Workers))
	entry.snap.Store(next)
	s.resolvers.drop(entry, next.version)
}

// resolverKey is the request part of a cached resolver's key: the
// locator at eps or the UDG baseline at radius, the other knob zero.
type resolverKey struct {
	kind   resolve.Kind
	eps    float64
	radius float64
}

// resolverFor captures the current snapshot of entry and returns the
// resolver answering spec against it: the snapshot's own for the
// exact, voronoi and dynamic kinds, otherwise a cached one, built (or
// joined as an in-flight single-flight build) on a miss. Parameters
// irrelevant to the chosen backend are normalized to zero before the
// cache lookup, so requests differing only in an ignored knob share
// one resolver. The returned kind and eps are the effective ones
// (after defaulting), for echoing in responses.
func (s *Server) resolverFor(tr *trace.Trace, entry *netEntry, spec resolverSpec) (*snapshot, resolve.Resolver, resolve.Kind, float64, error) {
	snap := entry.snap.Load()
	if snap == nil {
		return nil, nil, 0, 0, errUnknownNetwork
	}
	kind := snap.kind
	if spec.kind != "" {
		k, err := resolve.ParseKind(spec.kind)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		kind = k
	}
	// NaN/Inf knobs must be rejected before they can become part of a
	// cache key: a NaN float in a Go map key never matches on lookup
	// or delete, so it would turn every such request into a fresh
	// build plus a permanently leaked cache entry.
	eps, radius := 0.0, 0.0
	switch kind {
	case resolve.KindExact, resolve.KindVoronoi, resolve.KindDynamic:
		// All three are HeardBy on the generation, which its epoch
		// snapshot answers exactly: one grid lookup, then Observation
		// 2.2's single candidate and one SINR check (the scan for
		// beta <= 1). The O(n^2) scan stays the library's exact
		// resolver, the oracle these answers are tested against.
		return snap, snap.resolver, kind, 0, nil
	case resolve.KindLocator:
		eps = spec.eps
		if eps == 0 {
			eps = s.opt.DefaultEps
		}
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < s.opt.MinEps {
			return nil, nil, 0, 0, fmt.Errorf("%w (eps %g < %g)", errEpsTooSmall, eps, s.opt.MinEps)
		}
	case resolve.KindUDG:
		radius = spec.radius
		if radius == 0 {
			radius = snap.radius
		}
		if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
			return nil, nil, 0, 0, fmt.Errorf("serve: radius must be a non-negative finite number, got %g", radius)
		}
	}
	key := cacheKey[resolverKey]{entry, snap.version, resolverKey{kind, eps, radius}}
	// One span covers the cache interaction either way: it begins as a
	// hit (covering any wait on another request's in-flight build) and
	// is renamed when this request turns out to run the build itself.
	si := tr.Start("resolver.hit")
	defer tr.End(si)
	res, _, err := s.resolvers.get(key, nil, func(resolve.Resolver) (resolve.Resolver, error) {
		tr.SetName(si, "resolver.build")
		opts := []resolve.Option{resolve.WithWorkers(s.opt.Workers)}
		if kind == resolve.KindLocator {
			opts = append(opts, resolve.WithEpsilon(eps))
		}
		if kind == resolve.KindUDG && radius > 0 {
			opts = append(opts, resolve.WithRadius(radius))
		}
		return resolve.New(kind, snap.net, opts...)
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return snap, res, kind, eps, nil
}

// errorStatus is the HTTP status of a failed resolver or schedule
// lookup: 404 for an unknown network, 500 for a build that panicked
// (the server's fault), and 400 for everything else (the request's).
func errorStatus(err error) int {
	switch {
	case errors.Is(err, errUnknownNetwork):
		return http.StatusNotFound
	case errors.Is(err, errBuildPanicked):
		return http.StatusInternalServerError
	case errors.Is(err, errTooManyLinks):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Wire kind strings, hoisted so resultFor stays allocation-free: the
// compiler treats a method call on a constant as escaping at the call
// site, and resultFor runs once per point in every batch.
var (
	kindReception   = core.Reception.String()
	kindNoReception = core.NoReception.String()
)

// resultFor converts an exact Location to the wire shape.
//
//sinr:hotpath
func resultFor(loc core.Location) LocateResult {
	if loc.Kind == core.Reception {
		return LocateResult{Kind: kindReception, Station: loc.Station}
	}
	return LocateResult{Kind: kindNoReception, Station: NoStationHeard}
}

// locateScratch is the pooled per-request scratch of the batch locate
// handler: the request body, the decoded request (whose Points array
// the decoder refills in place), the query points, the resolver
// answers and the wire results all ride along between requests, so
// steady-state batch serving recycles its large buffers instead of
// re-allocating them per request.
type locateScratch struct {
	body    []byte
	req     LocateRequest
	pts     []geom.Point
	answers []core.Location
	results []LocateResult
}

var locatePool = sync.Pool{New: func() any { return new(locateScratch) }}

// grow returns buf resized to n entries, reusing its backing array
// when the capacity allows.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	tr := traceOf(w)
	sc := locatePool.Get().(*locateScratch)
	defer sc.release()
	ds := tr.Start("decode")
	err := sc.decodeLocate(w, r, s.opt.MaxBodyBytes)
	tr.End(ds)
	if !bodyDecoded(w, err) {
		return
	}
	req := &sc.req
	if len(req.Points) > s.opt.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d points exceeds limit %d", len(req.Points), s.opt.MaxBatch)
		return
	}
	entry, ok := s.entryFor(req.Network)
	if !ok {
		writeError(w, http.StatusNotFound, "%v", fmt.Errorf("%w %q", errUnknownNetwork, req.Network))
		return
	}
	tr.SetNetwork(req.Network)
	// Admission gates everything expensive — the resolver build as
	// much as the batch itself.
	if !s.admit(w, r, routeLocate, entry) {
		return
	}
	defer entry.release()
	snap, res, kind, eps, err := s.resolverFor(tr, entry, resolverSpec{
		kind: req.Resolver, eps: req.Eps, radius: req.Radius,
	})
	if err != nil {
		writeError(w, errorStatus(err), "%v", err)
		return
	}
	sc.pts = grow(sc.pts, len(req.Points))
	for i, p := range req.Points {
		sc.pts[i] = geom.Pt(p.X, p.Y)
	}
	sc.answers = grow(sc.answers, len(sc.pts))
	ki := kindIdx(kind)
	rs := tr.Start("resolve.batch")
	t0 := time.Now()
	if err := res.ResolveBatch(r.Context(), sc.pts, sc.answers); err != nil {
		return // client went away mid-batch; nothing left to tell it
	}
	tr.End(rs)
	s.observeResolve(ki, time.Since(t0).Seconds(), tr)
	s.m.queries[ki].Add(uint64(len(sc.pts)))
	// Epoch lag: how many generations moved under this request while
	// it served from its pinned snapshot (0 in the steady state).
	if latest := entry.snap.Load(); latest != nil {
		s.m.epochLag.Observe(float64(latest.version - snap.version))
	}
	sc.results = grow(sc.results, len(sc.answers))
	for i, a := range sc.answers {
		sc.results[i] = resultFor(a)
	}
	es := tr.Start("encode")
	writeJSON(w, http.StatusOK, LocateResponse{
		Network: req.Network, Version: snap.version, Resolver: kind.String(), Eps: eps, Results: sc.results,
	})
	tr.End(es)
}

// handleLocateStream answers NDJSON point lines with NDJSON result
// lines over the selected resolver's ResolveStream. The request
// context cancels the pipeline, so a client disconnect tears the
// stream down cleanly. Query parameters: network, resolver, eps,
// radius — same semantics as the /v1/locate body fields.
func (s *Server) handleLocateStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	q := r.URL.Query()
	name := q.Get("network")
	spec := resolverSpec{kind: q.Get("resolver")}
	if v := q.Get("eps"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad eps %q", v)
			return
		}
		spec.eps = parsed
	}
	if v := q.Get("radius"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad radius %q", v)
			return
		}
		spec.radius = parsed
	}
	entry, ok := s.entryFor(name)
	if !ok {
		writeError(w, http.StatusNotFound, "%v", fmt.Errorf("%w %q", errUnknownNetwork, name))
		return
	}
	tr := traceOf(w)
	tr.SetNetwork(name)
	if !s.admit(w, r, routeStream, entry) {
		return
	}
	defer entry.release()
	snap, res, kind, _, err := s.resolverFor(tr, entry, spec)
	if err != nil {
		writeError(w, errorStatus(err), "%v", err)
		return
	}

	// The stream interleaves reads of the request body with response
	// writes; HTTP/1.x servers sever the body on the first write unless
	// full-duplex is enabled (HTTP/2 is duplex natively and may report
	// an error here, which is fine to ignore).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	// The stream's context cancels on client disconnect (the request
	// context) or on server drain — an NDJSON stream can otherwise
	// outlive a shutdown indefinitely, and Drain's contract is that
	// streams die so http.Server.Shutdown can finish.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.drainCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	in := make(chan geom.Point)
	// Every served backend resolves uncertainty rings itself (exact
	// fallback is on), so the stream needs no point echo to settle H?
	// answers — the resolver's output is final.
	out := res.ResolveStream(ctx, in)

	// readErr carries a malformed-line error from the reader to the
	// writer, which reports it as a trailing NDJSON error object after
	// the accepted points drain — a 200 status is already on the wire,
	// so the error line is what tells the client the stream was
	// truncated rather than complete.
	readErr := make(chan error, 1)
	go func() {
		defer close(in)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			p, err := decodePointLine(line)
			if err != nil {
				readErr <- fmt.Errorf("bad point line: %v", err)
				return
			}
			select {
			case <-ctx.Done():
				return
			case in <- geom.Pt(p.X, p.Y):
			}
		}
		if err := sc.Err(); err != nil {
			readErr <- fmt.Errorf("reading stream: %v", err)
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	// A full-duplex HTTP/1.x stream can end (drain, client cancel, a
	// malformed line) while its request body is still arriving; the
	// connection is then closed rather than kept alive, or the body's
	// tail would be parsed as the next request on it.
	if r.ProtoMajor == 1 {
		w.Header().Set("Connection", "close")
	}
	// The whole stream is answered from the snapshot captured above; a
	// concurrent hot swap never changes answers mid-stream. The echoed
	// version lets clients (and the swap-consistency tests) pin every
	// answer line to the network generation that produced it.
	w.Header().Set("Sinr-Network-Version", strconv.FormatUint(snap.version, 10))
	w.Header().Set("Sinr-Resolver", kind.String())
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ss := tr.Start("stream")
	defer tr.End(ss)
	const flushEvery = 256
	n := 0
	for a := range out {
		if err := enc.Encode(resultFor(a)); err != nil {
			return // client went away; ctx cancellation stops the pipeline
		}
		// Flush on batch boundaries and whenever no answer is
		// immediately pending, so a request/response-lockstep client
		// sees each answer without waiting for the 4K response buffer
		// to fill (mirroring par.Stream's trickle-flush design).
		if n++; n%flushEvery == 0 || len(out) == 0 {
			_ = rc.Flush()
		}
	}
	s.m.queries[kindIdx(kind)].Add(uint64(n))
	select {
	case err := <-readErr:
		_ = enc.Encode(errorResponse{Error: err.Error()})
	default:
	}
	_ = rc.Flush()
}
