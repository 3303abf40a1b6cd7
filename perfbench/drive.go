package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// benchServer is one in-process serve.Server behind a loopback TCP
// listener, with the two client connections the benchmark may use: the
// reader (locate batches) and the writer (PATCH and schedule).
type benchServer struct {
	srv    *serve.Server
	hs     *http.Server
	addr   string
	served chan struct{} // closed when Serve has returned
	reader *client
	writer *client
}

func startServer(rec *recorder, listening func(addr string)) (*benchServer, error) {
	// MaxConcurrent 2 puts every locate and schedule request through
	// admission; with at most two connections nothing ever queues.
	srv := serve.NewServer(serve.Options{MaxConcurrent: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if rec != nil {
		h = &spanHandler{next: srv, rec: rec}
	}
	b := &benchServer{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	b.reader = newClient("http://" + b.addr)
	b.writer = newClient("http://" + b.addr)
	if listening != nil {
		listening(b.addr)
	}
	return b, nil
}

// close stops the server and both clients and returns once the serving
// goroutine has exited. In-flight handlers get a grace period; past it
// their connections are closed under them.
func (b *benchServer) close() {
	b.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		_ = b.hs.Close()
	}
	<-b.served
	b.reader.close()
	b.writer.close()
}

// client is one HTTP/1.1 connection to the server.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response body, which stays
// valid until the next call. spanID, when nonzero, is sent along so the
// server-side wrapper can parent its handler span under it.
func (c *client) do(ctx context.Context, method, path string, body []byte, spanID int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call is do for requests that must succeed, decoding the reply into out.
func (c *client) call(ctx context.Context, method, path string, body []byte, out any) error {
	status, resp, err := c.do(ctx, method, path, body, 0)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp, out)
}

// liveHeap returns the heap still reachable after two collections (the
// second one also empties what sync.Pool kept from the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setup registers the network on a fresh server and waits for the
// first locate answer from the requested backend. setup_s spans both
// (a backend built in the background still counts); heap_mb is the live
// heap the registration added.
func setup(ctx context.Context, s shape, in *inputs, spec []byte, rec *recorder, listening func(string)) (b *benchServer, secs, heapMB float64, err error) {
	if b, err = startServer(rec, listening); err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if err != nil {
			b.close()
			b = nil
		}
	}()
	// Open both connections first so their buffers are not counted.
	for _, c := range []*client{b.reader, b.writer} {
		if err = c.call(ctx, http.MethodGet, "/healthz", nil, nil); err != nil {
			return
		}
	}
	before := liveHeap()
	t0 := time.Now()
	var reg serve.NetworkResponse
	if err = b.reader.call(ctx, http.MethodPost, "/v1/networks", spec, &reg); err != nil {
		return
	}
	if reg.Version != 1 || reg.Stations != s.n {
		return b, 0, 0, fmt.Errorf("registration answered version %d with %d stations, want 1 and %d", reg.Version, reg.Stations, s.n)
	}
	for {
		var loc serve.LocateResponse
		if err = b.reader.call(ctx, http.MethodPost, "/v1/locate", in.bodies[0], &loc); err != nil {
			return
		}
		if loc.Resolver == s.resolver {
			break
		}
	}
	secs = time.Since(t0).Seconds()
	heapMB = (float64(liveHeap()) - float64(before)) / (1 << 20)
	return b, secs, heapMB, nil
}

// batchRec is one served locate batch.
type batchRec struct {
	body    int
	version uint64
	answers []int32 // served station per point, -1 for none heard
	span    int64   // client span ID; 0 for an untraced request
	raw     []byte  // response bytes until decoded; nil when equal to the body's first response
}

type patchRec struct {
	event    int
	version  uint64
	stations int
	path     string
	span     int64
}

type schedRec struct {
	resp serve.ScheduleResponse
	span int64
}

// slice is what the untraced batches completed in one second of the
// window did: their points and the time they took.
type slice struct {
	pts  int
	busy time.Duration
}

// window is what one timed window measured. Latency samples are kept
// per class: class 0 is untraced, class 1 traced (a traced run
// alternates the two so tracing overhead is measured side by side).
type window struct {
	elapsed  time.Duration
	batches  []batchRec
	batchLat [2][]time.Duration
	batchPts [2]int
	batchDur [2]time.Duration // time spent on each class's batches
	slices   []slice          // untraced batches per second of the window

	patches  []patchRec
	patchLat [2][]time.Duration // from each delta's due time
	lag      []time.Duration    // how late each delta was sent
	scheds   []schedRec
	schedLat [2][]time.Duration

	attempted, failed atomic.Int64 // requests of both loops
	builds            int64        // resolver builds during the window
	bad               error        // first malformed answer, if any
	firstResp         [][]byte     // per body: the first response, until decoded
}

func (w *window) fail(err error) {
	if w.bad == nil {
		w.bad = err
	}
}

// warmup sends a few untimed batches so connection buffers, pools and
// the resolver cache are in their steady state when timing starts.
func warmup(ctx context.Context, in *inputs, b *benchServer) error {
	for i := 0; i < 32; i++ {
		if err := b.reader.call(ctx, http.MethodPost, "/v1/locate", in.bodies[i%len(in.bodies)], nil); err != nil {
			return err
		}
	}
	return nil
}

func runWindow(ctx context.Context, s shape, in *inputs, b *benchServer, seconds float64, rec *recorder) (*window, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &window{}
	builds0 := b.srv.LocatorBuilds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var rerr, werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rerr = readLoop(ctx, in, b.reader, start, deadline, rec, w); rerr != nil {
			cancel()
		}
	}()
	if s.patchRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if werr = writeLoop(ctx, s, in, b.writer, start, deadline, rec, w); werr != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.builds = b.srv.LocatorBuilds() - builds0
	if err := errors.Join(rerr, werr); err != nil {
		return nil, err
	}
	decodeBatches(s, in, w)
	return w, nil
}

// readLoop is the closed-loop reader: one batch in flight at a time.
// Inside the window it only keeps the response bytes, and only those
// that differ from the body's first response; decodeBatches parses them
// after the window, so client-side JSON work does not compete with the
// server for the two CPUs while timing runs.
func readLoop(ctx context.Context, in *inputs, c *client, start, deadline time.Time, rec *recorder, w *window) error {
	w.firstResp = make([][]byte, len(in.bodies))
	for i := 0; time.Now().Before(deadline); i++ {
		bi := i % len(in.bodies)
		class := 0
		var sp span
		if rec != nil && i%2 == 1 {
			class = 1
			sp = rec.open("http.locate", 0, 0)
		}
		t0 := time.Now()
		status, body, err := c.do(ctx, http.MethodPost, "/v1/locate", in.bodies[bi], sp.id)
		lat := time.Since(t0)
		if class == 1 {
			rec.close(sp, 1)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.attempted.Add(1)
		if err != nil || status != http.StatusOK {
			w.failed.Add(1)
			w.batchLat[class] = append(w.batchLat[class], failedLatency)
			continue
		}
		br := batchRec{body: bi, span: sp.id}
		switch first := w.firstResp[bi]; {
		case first == nil:
			w.firstResp[bi] = bytes.Clone(body)
		case !bytes.Equal(body, first):
			br.raw = bytes.Clone(body)
		}
		w.batches = append(w.batches, br)
		w.batchLat[class] = append(w.batchLat[class], lat)
		w.batchPts[class] += len(in.points[bi])
		busy := time.Since(t0)
		w.batchDur[class] += busy
		if class == 0 {
			sec := int(time.Since(start) / time.Second)
			for len(w.slices) <= sec {
				w.slices = append(w.slices, slice{})
			}
			w.slices[sec].pts += len(in.points[bi])
			w.slices[sec].busy += busy
		}
	}
	return nil
}

// decodeBatches parses the responses the reader kept and fills each
// batch's version and answers.
func decodeBatches(s shape, in *inputs, w *window) {
	type decoded struct {
		version uint64
		answers []int32
		err     error
	}
	decode := func(bi int, raw []byte) decoded {
		var resp serve.LocateResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return decoded{err: fmt.Errorf("undecodable response: %v", err)}
		}
		d := decoded{version: resp.Version, answers: make([]int32, len(resp.Results))}
		d.err = checkShape(s, &resp, len(in.points[bi]), d.answers)
		return d
	}
	firsts := make(map[int]decoded)
	for i := range w.batches {
		b := &w.batches[i]
		d, ok := firsts[b.body]
		if b.raw != nil {
			d = decode(b.body, b.raw)
			b.raw = nil
		} else if !ok {
			d = decode(b.body, w.firstResp[b.body])
			firsts[b.body] = d
		}
		if d.err != nil {
			w.fail(fmt.Errorf("batch %d: %v", i, d.err))
		}
		b.version, b.answers = d.version, d.answers
	}
	w.firstResp = nil
}

// checkShape checks what a response must say regardless of the oracle:
// the backend named, one result per point, and consistent result kinds.
// It fills answers with the served stations.
func checkShape(s shape, resp *serve.LocateResponse, points int, answers []int32) error {
	if resp.Network != netName || resp.Resolver != s.resolver {
		return fmt.Errorf("answered for network %q by %q, want %q by %q", resp.Network, resp.Resolver, netName, s.resolver)
	}
	if len(resp.Results) != points {
		return fmt.Errorf("%d results for %d points", len(resp.Results), points)
	}
	for k, r := range resp.Results {
		switch {
		case r.Kind == "H+" && r.Station >= 0:
			answers[k] = int32(r.Station)
		case r.Kind == "H-" && r.Station == serve.NoStationHeard:
			answers[k] = -1
		default:
			return fmt.Errorf("point %d: malformed result %+v", k, r)
		}
	}
	return nil
}

// writeLoop is the open-loop writer: delta k is due at start + k/rate
// whatever happened to earlier ones, and its latency counts from that
// due time, so a stall also charges the deltas queued behind it.
func writeLoop(ctx context.Context, s shape, in *inputs, c *client, start, deadline time.Time, rec *recorder, w *window) error {
	interval := time.Duration(float64(time.Second) / s.patchRate)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	path := "/v1/networks/" + netName
	for k := range in.patches {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return nil
		}
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
		w.lag = append(w.lag, time.Since(due))
		class := 0
		var sp span
		if rec != nil && k%2 == 1 {
			class = 1
			sp = rec.open("http.patch", 0, 0)
		}
		status, body, err := c.do(ctx, http.MethodPatch, path, in.patches[k], sp.id)
		lat := time.Since(due)
		if class == 1 {
			rec.close(sp, 1)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.attempted.Add(1)
		if err != nil || status != http.StatusOK {
			// The local mirror cannot follow a delta whose fate is
			// unknown, so later generations could not be verified.
			return fmt.Errorf("PATCH %d failed: status %d, %v: %s", k, status, err, bytes.TrimSpace(body))
		}
		var nr serve.NetworkResponse
		if err := json.Unmarshal(body, &nr); err != nil {
			return fmt.Errorf("PATCH %d: undecodable response: %v", k, err)
		}
		w.patches = append(w.patches, patchRec{event: k, version: nr.Version, stations: nr.Stations, path: nr.ApplyPath, span: sp.id})
		w.patchLat[class] = append(w.patchLat[class], lat)

		if (k+1)%s.schedEvery == 0 {
			class := 0
			if rec != nil && len(w.scheds)%2 == 1 {
				class = 1
			}
			r, lat, err := schedule(ctx, c, in, rec, class == 1)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.attempted.Add(1)
			if err != nil {
				return err
			}
			w.scheds = append(w.scheds, r)
			w.schedLat[class] = append(w.schedLat[class], lat)
		}
	}
	return nil
}

func schedule(ctx context.Context, c *client, in *inputs, rec *recorder, traced bool) (schedRec, time.Duration, error) {
	var sp span
	if traced {
		sp = rec.open("http.sched", 0, 0)
	}
	t0 := time.Now()
	status, body, err := c.do(ctx, http.MethodPost, "/v1/networks/"+netName+"/schedule", in.schedBody, sp.id)
	lat := time.Since(t0)
	if traced {
		rec.close(sp, 1)
	}
	if err != nil || status != http.StatusOK {
		return schedRec{}, lat, fmt.Errorf("schedule failed: status %d, %v: %s", status, err, bytes.TrimSpace(body))
	}
	r := schedRec{span: sp.id}
	if err := json.Unmarshal(body, &r.resp); err != nil {
		return r, lat, fmt.Errorf("schedule: undecodable response: %v", err)
	}
	return r, lat, nil
}
