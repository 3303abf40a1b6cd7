package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// benchServer boots a test server with one registered 64-station
// network and a warmed locator, so the benchmarks measure serving, not
// the one-time build.
func benchServer(b *testing.B, eps float64) (*httptest.Server, []geom.Point) {
	b.Helper()
	gen := workload.NewGenerator(1)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	stations, err := gen.UniformSeparated(64, box, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)

	reg := NetworkSpec{Name: "bench", Noise: 0.01, Beta: 3}
	reg.Stations = make([]SpecStation, len(stations))
	for i, s := range stations {
		reg.Stations[i] = SpecStation{X: s.X, Y: s.Y}
	}
	body, _ := json.Marshal(reg)
	resp, err := ts.Client().Post(ts.URL+"/v1/networks", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()

	// Warm the locator cache.
	warm, _ := json.Marshal(LocateRequest{Network: "bench", Eps: eps, Points: []PointJSON{{}}})
	resp, err = ts.Client().Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(warm))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	return ts, gen.QueryPoints(4096, box)
}

// BenchmarkServeLocateBatch measures end-to-end served batch locate
// throughput (HTTP + JSON + sharded exact batch query); one iteration
// is one 1024-point batch.
func BenchmarkServeLocateBatch(b *testing.B) {
	const eps = 0.1
	ts, pts := benchServer(b, eps)
	req := LocateRequest{Network: "bench", Eps: eps}
	req.Points = make([]PointJSON, 1024)
	for i := range req.Points {
		p := pts[i%len(pts)]
		req.Points[i] = PointJSON{X: p.X, Y: p.Y}
	}
	body, _ := json.Marshal(req)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %s", resp.Status)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.SetBytes(1024)
	b.ReportMetric(float64(b.N)*1024/b.Elapsed().Seconds(), "queries/s")
}

// nopWriter discards the response body: BenchmarkServeBatch measures
// the server, not a client socket.
type nopWriter struct {
	h      http.Header
	status int
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(code int)        { w.status = code }

// replayBody replays one fixed payload as a request body across
// iterations without reallocating.
type replayBody struct{ bytes.Reader }

func (b *replayBody) Close() error { return nil }

// handlerBench boots an in-process server with admission and metrics
// enabled and one registered 64-station network, "bench", for the
// benchmarks that drive the handler stack without a socket.
func handlerBench(b *testing.B) (*Server, *workload.Generator, geom.Box) {
	b.Helper()
	gen := workload.NewGenerator(1)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	stations, err := gen.UniformSeparated(64, box, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(Options{MaxConcurrent: 4})
	reg := NetworkSpec{Name: "bench", Noise: 0.01, Beta: 3}
	reg.Stations = make([]SpecStation, len(stations))
	for i, s := range stations {
		reg.Stations[i] = SpecStation{X: s.X, Y: s.Y}
	}
	regBody, _ := json.Marshal(reg)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/networks", bytes.NewReader(regBody)))
	if rw.Code != http.StatusOK {
		b.Fatalf("register: %d %s", rw.Code, rw.Body)
	}
	return srv, gen, box
}

// replayer returns a function serving one POST /v1/locate of payload
// through srv's full handler stack, reusing the request, its body and
// the response writer so that only the server allocates. The first
// call warms the resolver cache and the scratch pools.
func replayer(b *testing.B, srv *Server, req LocateRequest) func() {
	b.Helper()
	payload, _ := json.Marshal(req)
	body := new(replayBody)
	hreq := httptest.NewRequest(http.MethodPost, "/v1/locate", nil)
	hreq.ContentLength = int64(len(payload))
	w := &nopWriter{h: make(http.Header)}
	serveOnce := func() {
		body.Reset(payload)
		hreq.Body = body
		w.status = 0
		srv.ServeHTTP(w, hreq)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	serveOnce()
	return serveOnce
}

// wirePoints returns n query points of the benchmark box in the wire
// shape.
func wirePoints(gen *workload.Generator, box geom.Box, n int) []PointJSON {
	out := make([]PointJSON, n)
	for i, p := range gen.QueryPoints(n, box) {
		out[i] = PointJSON{X: p.X, Y: p.Y}
	}
	return out
}

// BenchmarkServeBatch is the CI 0-alloc gate for the instrumented
// request path: one op is one query point served through the full
// handler stack — mux dispatch, observability middleware, admission,
// body decode, sharded resolve, JSON encode — with metrics and
// admission enabled. The bounded per-request overhead (request
// strings, response headers, batch fan-out) is amortized over the
// 1024-point batch; anything that allocates per point — the batch
// loop, the body scan, a metric record, an admission slot — surfaces
// as a nonzero allocs/op. BenchmarkServeLocateRequest reports the
// per-request cost.
func BenchmarkServeBatch(b *testing.B) {
	srv, gen, box := handlerBench(b)
	const batch = 1024
	serveOnce := replayer(b, srv, LocateRequest{Network: "bench", Resolver: "exact", Points: wirePoints(gen, box, batch)})

	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		serveOnce()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkServeLocateRequest measures one 256-point POST /v1/locate
// through the full handler stack — the batch shape of perfbench's
// locator-uniform workload — so B/op and allocs/op are per request.
// The locator sub-benchmark builds its eps-0.2 locator once, outside
// the timer.
func BenchmarkServeLocateRequest(b *testing.B) {
	srv, gen, box := handlerBench(b)
	const batch = 256
	pts := wirePoints(gen, box, batch)
	for _, tc := range []struct {
		kind string
		eps  float64
	}{{"exact", 0}, {"locator", 0.2}} {
		b.Run(tc.kind, func(b *testing.B) {
			serveOnce := replayer(b, srv, LocateRequest{Network: "bench", Resolver: tc.kind, Eps: tc.eps, Points: pts})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce()
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeLocateStream measures NDJSON streaming throughput; one
// iteration streams 1024 points through /v1/locate/stream.
func BenchmarkServeLocateStream(b *testing.B) {
	const eps = 0.1
	ts, pts := benchServer(b, eps)
	var lines bytes.Buffer
	for i := 0; i < 1024; i++ {
		p := pts[i%len(pts)]
		fmt.Fprintf(&lines, "{\"x\":%g,\"y\":%g}\n", p.X, p.Y)
	}
	payload := lines.Bytes()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/locate/stream?network=bench&eps=0.1",
			"application/x-ndjson", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %s", resp.Status)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportMetric(float64(b.N)*1024/b.Elapsed().Seconds(), "queries/s")
}
