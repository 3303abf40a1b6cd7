// Package serve is the query-serving subsystem: a long-running HTTP
// service that owns a registry of named networks and answers
// point-location traffic in batches and streams through any of the
// five resolver kinds (internal/resolve).
//
// # Endpoints
//
//	POST   /v1/networks        register or replace a named network (NetworkSpec body)
//	GET    /v1/networks        list registered networks
//	GET    /v1/networks/{name} canonical spec readback (byte-stable; version + hash headers)
//	DELETE /v1/networks/{name} remove a network, its cached resolvers/schedules, and its gauges
//	PATCH  /v1/networks/{name} apply a station delta (add/remove/set_power)
//	POST   /v1/locate          JSON batch of points -> exact answers
//	POST   /v1/locate/stream   NDJSON points in -> NDJSON answers out
//	GET    /healthz            liveness probe
//
// # Declarative networks
//
// NetworkSpec (spec.go) is the one canonical description of a
// network. POST bodies and spec files both decode through DecodeSpec:
// an unknown key or content after the document is a 400 or a spec
// error, never a silently different network. The server stores each
// generation's normalized spec, its canonical serialization, and its
// content hash. GET /v1/networks/{name} returns those stored bytes
// verbatim — creating a network from a spec and reading it back is
// byte-identical — with the generation in a Sinr-Network-Version
// header and the hash in Sinr-Spec-Hash. ApplySpec converges a name
// toward a spec with the cheapest operation (no-op on hash match, the
// delta path for station/power/metadata drift, rebuild for physics
// changes), which is what the reconcile controller
// (internal/reconcile) drives.
//
// # Resolver selection
//
// Every query names its backend through the "resolver" field of the
// /v1/locate body (or the resolver query parameter of the stream
// endpoint): "exact" (Network.HeardBy), "locator" (the Theorem 3
// structure with exact fallback), "voronoi" (single candidate + one
// SINR check: the nearest station, or the strongest signal under
// per-station powers; the scan for beta <= 1), "udg" (the graph-based
// baseline) or "dynamic" (the current dynamic-engine epoch snapshot:
// exact answers, O(1) resolver turnover per PATCH instead of a backend
// rebuild). One engine answers exact, voronoi and dynamic: each
// generation's epoch snapshot (one grid lookup, then the single
// candidate), and the response echoes the kind the request named. The
// O(n^2) scan is the oracle the tests and sinrload -verify hold it to.
// A network registration may set its own default backend (and a
// default UDG radius) via the same "resolver"/"radius" fields; a
// request that names neither uses the network's default, which is
// "locator" when unset — the wire behavior of the pre-resolver API.
// "eps" applies to the locator backend and "radius" to the UDG
// backend; knobs irrelevant to the chosen backend are ignored, and
// a zero UDG radius is derived via resolve.DefaultUDGRadius.
//
// # Hot swap and deltas
//
// Re-registering a name atomically replaces the network snapshot
// (stations, default backend, defaults) and bumps its version.
// PATCH /v1/networks/{name} mutates it instead: the delta document
// (internal/dynamic wire shape: set_power, remove, add — pre-delta
// indices throughout) flows through the network's dynamic engine,
// which patches its spatial structures copy-on-write below the churn
// threshold and rebuilds amortized above it, and the resulting epoch
// snapshot is swapped in as the next version. The response echoes the
// epoch and which apply path ran; the Sinr-Network-Version header of
// streams (and the "version" of batch replies) reflects epochs, so
// clients can pin any answer to the exact station set that produced
// it.
// Queries capture the snapshot once at the start of a request, so
// in-flight batches and streams finish against the resolver they
// started with while new requests see the new network — mobility
// updates never drop traffic.
//
// # Caching
//
// The exact, voronoi and dynamic kinds answer from the one resolver
// each generation builds when it is published — an O(1) wrap of its
// epoch snapshot — so they never touch a cache. Locator and UDG
// resolvers are cached per (network incarnation, version, kind, eps,
// radius) and schedules per (network incarnation, parameters) in one
// single-flight LRU type (cache.go):
// concurrent first requests for a key share one build (the O(n^3/eps)
// locator build is the expensive case), publishing a generation drops
// its predecessors' resolvers while a superseded schedule stays to
// seed the next repair, and deleting a network drops all it cached.
//
// # Request decoding
//
// POST /v1/locate reads its body once, through the MaxBodyBytes cap,
// into a pooled buffer. A fixed-shape scanner (decode.go) decodes the
// shape json.Marshal(LocateRequest) produces — what sinrload, perfbench
// and most clients send — straight into the pooled request, with
// strconv.ParseFloat for the numbers, the call encoding/json makes.
// It takes a body only when:
//
//   - it is one object, with only JSON whitespace after it, whose keys
//     are exactly "network", "resolver", "eps", "radius" and "points",
//     each at most once, in any order;
//   - "network" and "resolver" are strings of printable ASCII without
//     escapes (encoding/json rewrites invalid UTF-8, so non-ASCII falls
//     back);
//   - "eps", "radius" and every coordinate match the JSON number
//     grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? byte for
//     byte, and ParseFloat takes them without a range error. The
//     grammar check keeps ParseFloat's wider syntax (+1, .5, 1., 01,
//     0x1p3, Inf, NaN) a 400;
//   - "points" is an array of objects whose keys are exactly "x" and
//     "y", each at most once; a missing coordinate is 0.
//
// Every other body — unknown keys (which encoding/json ignores), keys
// differing only in case (which it matches), duplicate keys (where its
// last one wins), escapes, null, wrong types, a body over the cap —
// goes to encoding/json over the same bytes, after the reused request
// is zeroed. A read error reaches encoding/json after the bytes read
// before it, so a syntax error inside the cap stays a 400 and every
// other oversized body a 413. Served answers, statuses and error texts
// are therefore encoding/json's on every input, which the fuzz targets
// FuzzDecodeLocate and FuzzDecodePointLine check differentially. The
// NDJSON point lines of /v1/locate/stream take the same point scanner,
// with json.Unmarshal as the fallback. No flag or option selects a
// decoder. The request's "decode" span covers the read, the scan and
// any fallback.
//
// # Answer convention
//
// Served answers use the batch sentinel convention: "station" is the
// index of the heard station, or NoStationHeard (-1) when no station
// is heard — the JSON shape of core.NoStationHeard. Batch and stream
// answers are exact for every backend (the locator resolves its
// uncertainty rings via exact fallback), so "exact", "locator" and
// "voronoi" are identical to Network.HeardBy on every point, while
// "udg" answers its own graph-based reception model.
//
// A stream whose input contains a malformed line is truncated: the
// answers for the points accepted so far are followed by one trailing
// NDJSON object of the shape {"error": "..."} (the 200 status is
// already on the wire by then). Clients should treat any line with an
// "error" key as a truncation marker, not an answer.
package serve
