// Serving and declarative-operation facade: the query-serving
// subsystem (internal/serve) and the reconcile controller
// (internal/reconcile) re-exported for embedders. A Server is an
// http.Handler speaking the v1 API — register networks declaratively
// (NetworkSpec), query them (/v1/locate, /v1/locate/stream, schedule
// endpoint), read canonical specs back byte-stably, and delete them —
// and a Reconciler converges a Server toward a directory of spec
// files the way the sinrserve -spec-dir flag does.
package sinrdiag

import (
	"repro/internal/reconcile"
	"repro/internal/serve"
	"repro/internal/trace"
)

// NetworkSpec is the canonical declarative description of one served
// network: the POST /v1/networks body, the reconcile controller's
// JSON file format, and the GET /v1/networks/{name} readback.
type NetworkSpec = serve.NetworkSpec

// SpecStation is one station of a NetworkSpec (zero Power means the
// uniform default 1).
type SpecStation = serve.SpecStation

// SchedulePolicy is a network's declared scheduling defaults,
// inherited by schedule requests that omit a knob.
type SchedulePolicy = serve.SchedulePolicy

// SpecOutcome says what applying a spec did to the registry.
type SpecOutcome = serve.SpecOutcome

// The four ApplySpec outcomes.
const (
	SpecUnchanged = serve.SpecUnchanged
	SpecCreated   = serve.SpecCreated
	SpecPatched   = serve.SpecPatched
	SpecReplaced  = serve.SpecReplaced
)

// SpecResult reports one ApplySpec: outcome, resulting generation,
// and served shape.
type SpecResult = serve.SpecResult

// SpecHash is the content hash of a canonical spec serialization —
// the drift-detection currency of the declarative API.
func SpecHash(canonical []byte) string { return serve.SpecHash(canonical) }

// ParseNetworkSpec decodes one JSON spec document strictly, exactly
// as POST /v1/networks does: unknown fields and any content after the
// document are errors.
func ParseNetworkSpec(data []byte) (*NetworkSpec, error) { return reconcile.ParseSpec(data) }

// Server is the serving subsystem: an http.Handler owning a registry
// of named networks behind the v1 API, with resolver and schedule
// caches, admission control, and Prometheus metrics.
type Server = serve.Server

// ServerOptions configures a Server.
type ServerOptions = serve.Options

// NewServer returns a Server with the given options.
func NewServer(opt ServerOptions) *Server { return serve.NewServer(opt) }

// SpecRegistry is the registry surface a Reconciler converges; a
// *Server satisfies it.
type SpecRegistry = reconcile.Registry

// Reconciler converges a SpecRegistry toward a directory of
// declarative network specs: content-hash drift detection, a
// deduplicating workqueue with per-item exponential backoff, keyed
// per-name locks, and a terminal-failure state after repeated
// failures.
type Reconciler = reconcile.Controller

// ReconcilerOptions configures a Reconciler; the zero value of every
// field except Dir is a usable default.
type ReconcilerOptions = reconcile.Options

// ReconcilerStats is a point-in-time Reconciler summary.
type ReconcilerStats = reconcile.Stats

// NewReconciler builds a Reconciler converging reg toward opt.Dir;
// call Run to start it.
func NewReconciler(reg SpecRegistry, opt ReconcilerOptions) *Reconciler {
	return reconcile.New(reg, opt)
}

// TraceID is a 16-byte W3C trace identifier; its String form is the
// 32-hex-digit trace-id field of a traceparent header.
type TraceID = trace.ID

// SpanID is an 8-byte W3C span identifier, the parent-id field of a
// traceparent header.
type SpanID = trace.SpanID

// TraceRecorder is the flight recorder behind GET /debug/requests:
// lock-striped per route, it tail-samples the slowest and the errored
// requests; Server.Recorder exposes the serving one.
type TraceRecorder = trace.Recorder

// CapturedTrace is one flight-recorder entry as served by
// GET /debug/requests: identity, route, status, and per-stage spans.
type CapturedTrace = trace.Captured

// CapturedSpan is one stage of a CapturedTrace (start offset and
// duration in milliseconds).
type CapturedSpan = trace.CapturedSpan

// ParseTraceparent decodes a W3C traceparent header into its trace
// and span identifiers; ok is false on any malformation.
func ParseTraceparent(h string) (id TraceID, span SpanID, ok bool) {
	return trace.ParseTraceparent(h)
}

// FormatTraceparent renders a sampled W3C traceparent header for the
// given identifiers.
func FormatTraceparent(id TraceID, span SpanID) string {
	return trace.FormatTraceparent(id, span)
}
