package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/workload"
)

func testStations(t *testing.T, n int, seed int64) []geom.Point {
	t.Helper()
	gen := workload.NewGenerator(seed)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	pts, err := gen.UniformSeparated(n, box, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func registerReq(name string, stations []geom.Point, noise, beta float64) NetworkSpec {
	req := NetworkSpec{Name: name, Noise: noise, Beta: beta}
	req.Stations = make([]SpecStation, len(stations))
	for i, s := range stations {
		req.Stations[i] = SpecStation{X: s.X, Y: s.Y}
	}
	return req
}

// heardAll is the scan oracle over a slice in the wire shape: the
// station Network.HeardBy hears at each point, or core.NoStationHeard.
func heardAll(net *core.Network, pts []geom.Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = core.NoStationHeard
		if idx, ok := net.HeardBy(p); ok {
			out[i] = idx
		}
	}
	return out
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRegisterAndLocateMatchesHeardBy(t *testing.T) {
	stations := testStations(t, 16, 3)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("demo", stations, 0.01, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	ack := decodeJSON[NetworkResponse](t, resp)
	if ack.Version != 1 || ack.Stations != 16 {
		t.Fatalf("ack = %+v", ack)
	}

	gen := workload.NewGenerator(9)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(2000, box)
	// Include the stations themselves and exact-tie midpoints.
	pts = append(pts, stations...)
	pts = append(pts, geom.Midpoint(stations[0], stations[1]))

	req := LocateRequest{Network: "demo", Eps: 0.1}
	req.Points = make([]PointJSON, len(pts))
	for i, p := range pts {
		req.Points[i] = PointJSON{X: p.X, Y: p.Y}
	}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate: %s", resp.Status)
	}
	out := decodeJSON[LocateResponse](t, resp)
	if len(out.Results) != len(pts) {
		t.Fatalf("%d results for %d points", len(out.Results), len(pts))
	}
	want := heardAll(net, pts)
	for i := range want {
		if out.Results[i].Station != want[i] {
			t.Fatalf("point %v: served %d, HeardBy %d", pts[i], out.Results[i].Station, want[i])
		}
		wantKind := "H-"
		if want[i] != core.NoStationHeard {
			wantKind = "H+"
		}
		if out.Results[i].Kind != wantKind {
			t.Fatalf("point %v: kind %q, want %q", pts[i], out.Results[i].Kind, wantKind)
		}
	}
}

func TestLocateErrors(t *testing.T) {
	srv := NewServer(Options{MaxBatch: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Unknown network -> 404.
	resp := postJSON(t, ts, "/v1/locate", LocateRequest{Network: "nope", Points: []PointJSON{{}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown network: %s", resp.Status)
	}
	resp.Body.Close()

	// Invalid network spec -> 400.
	resp = postJSON(t, ts, "/v1/networks", NetworkSpec{Name: "bad", Beta: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid network: %s", resp.Status)
	}
	resp.Body.Close()

	// Oversized batch -> 413.
	stations := testStations(t, 4, 5)
	resp = postJSON(t, ts, "/v1/networks", registerReq("small", stations, 0.01, 3))
	resp.Body.Close()
	req := LocateRequest{Network: "small", Points: make([]PointJSON, 5)}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %s", resp.Status)
	}
	resp.Body.Close()

	// Bad eps -> 400 (locator build rejects eps >= 1).
	req = LocateRequest{Network: "small", Eps: 7, Points: []PointJSON{{X: 1}}}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad eps: %s", resp.Status)
	}
	resp.Body.Close()

	// eps below the server floor -> 400 before any build starts.
	before := srv.LocatorBuilds()
	req = LocateRequest{Network: "small", Eps: 1e-9, Points: []PointJSON{{X: 1}}}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tiny eps: %s", resp.Status)
	}
	resp.Body.Close()
	if got := srv.LocatorBuilds(); got != before {
		t.Errorf("tiny eps started %d builds, want 0", got-before)
	}

	// Trailing garbage on the stream eps -> 400 (strict float parse).
	resp, err := ts.Client().Post(ts.URL+"/v1/locate/stream?network=small&eps=0.1x5",
		"application/x-ndjson", strings.NewReader("{\"x\":0,\"y\":0}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed stream eps: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestBodySizeLimit checks oversized request bodies are rejected with
// 413 before being decoded, not allocated wholesale.
func TestBodySizeLimit(t *testing.T) {
	srv := NewServer(Options{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	big := registerReq("big", testStations(t, 64, 37), 0.01, 3)
	resp := postJSON(t, ts, "/v1/networks", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized register body: %s", resp.Status)
	}
	resp.Body.Close()

	req := LocateRequest{Network: "big", Points: make([]PointJSON, 64)}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized locate body: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestTrailingBodyContentRejected pins one JSON document per body on
// every route that decodes one: content after the document answers
// 400 instead of being dropped, while trailing whitespace is fine.
func TestTrailingBodyContentRejected(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{Workers: 1}))
	defer ts.Close()
	reg, err := json.Marshal(registerReq("tail", testStations(t, 4, 41), 0.01, 3))
	if err != nil {
		t.Fatal(err)
	}
	if resp := rawRequest(t, ts, http.MethodPost, "/v1/networks", string(reg)+" \n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("register with trailing whitespace: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
	locate := `{"network":"tail","resolver":"exact","points":[{"x":0,"y":0}]}`
	for _, tc := range []struct{ name, path, body string }{
		{"register", "/v1/networks", string(reg) + `{"name":"other"}`},
		{"locate garbage", "/v1/locate", locate + " garbage"},
		{"locate second document", "/v1/locate", locate + locate},
		{"locate stray brace", "/v1/locate", locate + "}"},
		{"schedule", "/v1/networks/tail/schedule", `{"scheduler":"greedy"} []`},
	} {
		resp := rawRequest(t, ts, http.MethodPost, tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", tc.name, resp.Status)
		}
	}
	resp := rawRequest(t, ts, http.MethodPost, "/v1/locate", locate+"\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate with a trailing newline: %s, want 200", resp.Status)
	}
}

// TestSingleFlightBuildDedup fires many concurrent first-touch requests
// for the same (network, eps) and asserts the O(n^3/eps) build ran
// exactly once.
func TestSingleFlightBuildDedup(t *testing.T) {
	stations := testStations(t, 12, 7)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("dedup", stations, 0.01, 3))
	resp.Body.Close()

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(LocateRequest{
				Network: "dedup", Eps: 0.1,
				Points: []PointJSON{{X: 0.5, Y: 0.5}},
			})
			resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %s", resp.Status)
				return
			}
			io.Copy(io.Discard, resp.Body)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.LocatorBuilds(); got != 1 {
		t.Errorf("LocatorBuilds = %d, want 1 (single-flight dedup)", got)
	}
}

// TestHotSwapUnderConcurrentQueries replaces the network while query
// traffic is in flight: no request may fail, every answer must match
// direct evaluation (old and new snapshots give identical answers here
// because the stations are unchanged), and the version observed in
// responses must advance.
func TestHotSwapUnderConcurrentQueries(t *testing.T) {
	stations := testStations(t, 10, 11)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg := registerReq("swap", stations, 0.01, 3)
	resp := postJSON(t, ts, "/v1/networks", reg)
	resp.Body.Close()

	gen := workload.NewGenerator(13)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(200, box)
	want := heardAll(net, pts)
	reqBody, _ := json.Marshal(func() LocateRequest {
		r := LocateRequest{Network: "swap", Eps: 0.1}
		r.Points = make([]PointJSON, len(pts))
		for i, p := range pts {
			r.Points[i] = PointJSON{X: p.X, Y: p.Y}
		}
		return r
	}())

	const clients = 8
	const rounds = 20
	var maxVersion sync.Map
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	stop := make(chan struct{})

	// Swapper: keep re-registering while queries fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b, _ := json.Marshal(reg)
			resp, err := ts.Client().Post(ts.URL+"/v1/networks", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("hot swap dropped a request: %s", resp.Status)
					resp.Body.Close()
					return
				}
				var out LocateResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					errs <- err
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				maxVersion.Store(out.Version, true)
				for i := range want {
					if out.Results[i].Station != want[i] {
						errs <- fmt.Errorf("answer changed under hot swap at %v: %d != %d",
							pts[i], out.Results[i].Station, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	versions := 0
	maxVersion.Range(func(k, v any) bool { versions++; return true })
	if versions < 2 {
		t.Errorf("observed %d distinct versions; hot swap did not take effect under load", versions)
	}
}

// TestLocateStreamEndpoint round-trips an NDJSON stream and checks the
// answers against direct evaluation.
func TestLocateStreamEndpoint(t *testing.T) {
	stations := testStations(t, 8, 17)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("stream", stations, 0.01, 3))
	resp.Body.Close()

	gen := workload.NewGenerator(19)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(1500, box)
	var in bytes.Buffer
	for _, p := range pts {
		fmt.Fprintf(&in, "{\"x\":%g,\"y\":%g}\n", p.X, p.Y)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/locate/stream?network=stream&eps=0.1", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	want := heardAll(net, pts)
	sc := bufio.NewScanner(resp.Body)
	i := 0
	for sc.Scan() {
		var r LocateResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if i >= len(want) {
			t.Fatalf("more answers than points (%d)", i)
		}
		if r.Station != want[i] {
			t.Fatalf("stream answer %d: served %d, HeardBy %d", i, r.Station, want[i])
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(pts) {
		t.Fatalf("got %d answers for %d points", i, len(pts))
	}
}

// TestLocateStreamLockstepClient drives the stream one point at a
// time, waiting for each answer before sending the next: the server
// must flush idle answers immediately instead of sitting on its
// response buffer.
func TestLocateStreamLockstepClient(t *testing.T) {
	stations := testStations(t, 6, 41)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/networks", registerReq("lock", stations, 0.01, 3))
	resp.Body.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/locate/stream?network=lock&eps=0.1", pr)
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()

	// The response header is only sent once the locator is ready; write
	// the first point to get things moving, then lockstep.
	pts := []geom.Point{stations[0], geom.Pt(50, 50), stations[3]}
	done := make(chan error, 1)
	go func() {
		var resp *http.Response
		select {
		case resp = <-respCh:
		case err := <-errCh:
			done <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for i, p := range pts {
			if i > 0 { // first point is written below before headers arrive
				fmt.Fprintf(pw, "{\"x\":%g,\"y\":%g}\n", p.X, p.Y)
			}
			if !sc.Scan() {
				done <- fmt.Errorf("stream ended before answer %d: %v", i, sc.Err())
				return
			}
			var r LocateResult
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				done <- err
				return
			}
			want, ok := net.HeardBy(p)
			if !ok {
				want = core.NoStationHeard
			}
			if r.Station != want {
				done <- fmt.Errorf("lockstep answer %d: served %d, want %d", i, r.Station, want)
				return
			}
		}
		pw.Close()
		done <- nil
	}()
	fmt.Fprintf(pw, "{\"x\":%g,\"y\":%g}\n", pts[0].X, pts[0].Y)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("lockstep client starved: idle answers were not flushed")
	}
}

// TestLocateStreamMalformedLine checks a malformed NDJSON line yields
// the answers accepted so far plus a trailing {"error": ...} object,
// so truncation is distinguishable from completion.
func TestLocateStreamMalformedLine(t *testing.T) {
	stations := testStations(t, 6, 43)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/networks", registerReq("mal", stations, 0.01, 3))
	resp.Body.Close()

	body := "{\"x\":0.1,\"y\":0.2}\n{\"x\":0.3,\"y\":0.1}\nnot json\n{\"x\":1,\"y\":1}\n"
	resp, err := ts.Client().Post(ts.URL+"/v1/locate/stream?network=mal&eps=0.1",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var answers, errLines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatal(err)
		}
		if _, isErr := probe["error"]; isErr {
			errLines++
		} else {
			answers++
		}
	}
	if answers != 2 || errLines != 1 {
		t.Fatalf("got %d answers and %d error lines, want 2 answers then 1 error marker", answers, errLines)
	}
}

// TestLocateStreamClientDisconnect cancels the request mid-stream and
// checks the server tears the pipeline down instead of hanging.
func TestLocateStreamClientDisconnect(t *testing.T) {
	stations := testStations(t, 8, 23)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("disc", stations, 0.01, 3))
	resp.Body.Close()

	// An endless request body: the stream would run forever without the
	// client-side cancel.
	pr, pw := io.Pipe()
	go func() {
		for i := 0; ; i++ {
			if _, err := fmt.Fprintf(pw, "{\"x\":%g,\"y\":%g}\n", float64(i%10)-5, float64(i%7)-3); err != nil {
				return // request side closed after cancellation
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/locate/stream?network=disc&eps=0.1", pr)
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			respCh <- err
			return
		}
		// Read a few answers, then abandon the stream.
		buf := make([]byte, 4096)
		_, _ = resp.Body.Read(buf)
		cancel()
		resp.Body.Close()
		respCh <- nil
	}()

	select {
	case err := <-respCh:
		if err != nil && !strings.Contains(err.Error(), "context canceled") {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client goroutine stuck")
	}
	pw.Close()

	// The server handler must finish; httptest.Server.Close blocks on
	// outstanding handlers, so a leaked stream would hang Close. Guard
	// it with a timeout.
	done := make(chan struct{})
	go func() {
		ts.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("server did not tear down the cancelled stream")
	}
}

// TestLRUEviction fills the cache past its capacity and checks old
// locators are evicted while the server keeps answering.
func TestLRUEviction(t *testing.T) {
	stations := testStations(t, 6, 29)
	srv := NewServer(Options{MaxLocators: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("lru", stations, 0.01, 3))
	resp.Body.Close()

	for _, eps := range []float64{0.3, 0.2, 0.1, 0.3} {
		req := LocateRequest{Network: "lru", Eps: eps, Points: []PointJSON{{X: 0.1, Y: 0.2}}}
		resp := postJSON(t, ts, "/v1/locate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eps %g: %s", eps, resp.Status)
		}
		resp.Body.Close()
	}
	if got := srv.resolvers.Len(); got > 2 {
		t.Errorf("cache holds %d locators, cap 2", got)
	}
	// eps 0.3 was evicted by 0.1 and had to rebuild: 4 builds total.
	if got := srv.LocatorBuilds(); got != 4 {
		t.Errorf("LocatorBuilds = %d, want 4 (3 distinct + 1 rebuild after eviction)", got)
	}
}

func TestListNetworks(t *testing.T) {
	stations := testStations(t, 4, 31)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, name := range []string{"b", "a"} {
		resp := postJSON(t, ts, "/v1/networks", registerReq(name, stations, 0.01, 3))
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[[]NetworkResponse](t, resp)
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("list = %+v", list)
	}
}

// TestLocateEveryResolverKind answers the same batch through all four
// backends over /v1/locate and checks each against its locally built
// resolver: the three exact backends must match Network.HeardBy, the
// UDG baseline must match the local UDG model (and, being a different
// reception model, is allowed to disagree with SINR).
func TestLocateEveryResolverKind(t *testing.T) {
	stations := testStations(t, 12, 47)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/networks", registerReq("kinds", stations, 0.01, 3))
	resp.Body.Close()

	gen := workload.NewGenerator(53)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(600, box)
	pts = append(pts, stations...)
	sinrWant := heardAll(net, pts)

	for _, kind := range resolve.Kinds() {
		local, err := resolve.New(kind, net)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]core.Location, len(pts))
		if err := local.ResolveBatch(context.Background(), pts, want); err != nil {
			t.Fatal(err)
		}
		req := LocateRequest{Network: "kinds", Resolver: kind.String()}
		req.Points = make([]PointJSON, len(pts))
		for i, p := range pts {
			req.Points[i] = PointJSON{X: p.X, Y: p.Y}
		}
		resp := postJSON(t, ts, "/v1/locate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: %s", kind, resp.Status)
		}
		out := decodeJSON[LocateResponse](t, resp)
		if out.Resolver != kind.String() {
			t.Fatalf("response resolver %q, want %q", out.Resolver, kind.String())
		}
		if kind == resolve.KindLocator && out.Eps != DefaultEps {
			t.Fatalf("locator response eps %g, want default %g", out.Eps, DefaultEps)
		}
		for i := range pts {
			if out.Results[i].Station != resolve.StationIndex(want[i]) {
				t.Fatalf("%v: point %v served %d, local backend %d",
					kind, pts[i], out.Results[i].Station, resolve.StationIndex(want[i]))
			}
			if kind != resolve.KindUDG && out.Results[i].Station != sinrWant[i] {
				t.Fatalf("%v: point %v served %d, HeardBy %d", kind, pts[i], out.Results[i].Station, sinrWant[i])
			}
		}
	}
}

// TestLocateOffNearestPathNetworks serves the two networks on which
// the nearest station is the wrong candidate: per-station powers, where
// station 0 (power 8) is heard at (0.7, 0) though station 1 (power 1/8)
// is nearer, and beta = 1/2, where both stations are heard at
// (0.52, 0) and the answer is the lowest index. Every exact backend
// must answer station 0.
func TestLocateOffNearestPathNetworks(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	powered := registerReq("powered", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 5)}, 0.01, 3)
	for i, p := range []float64{8, 0.125, 1} {
		powered.Stations[i].Power = p
	}
	lowBeta := registerReq("lowbeta", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0, 0.5)
	for _, tc := range []struct {
		reg NetworkSpec
		p   geom.Point
	}{
		{powered, geom.Pt(0.7, 0)},
		{lowBeta, geom.Pt(0.52, 0)},
	} {
		resp := postJSON(t, ts, "/v1/networks", tc.reg)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %s", tc.reg.Name, resp.Status)
		}
		resp.Body.Close()
		for _, kind := range []string{"exact", "voronoi", "dynamic"} {
			req := LocateRequest{Network: tc.reg.Name, Resolver: kind, Points: []PointJSON{{X: tc.p.X, Y: tc.p.Y}}}
			resp := postJSON(t, ts, "/v1/locate", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %s", tc.reg.Name, kind, resp.Status)
			}
			if out := decodeJSON[LocateResponse](t, resp); out.Results[0].Station != 0 {
				t.Errorf("%s %s: served station %d at %v, want 0", tc.reg.Name, kind, out.Results[0].Station, tc.p)
			}
		}
	}
}

// TestLocateBoxEdgesMatchHeardBy serves the points a few ulps either
// side of the cover-box edges of one-station networks through the
// three kinds the generation's epoch snapshot answers. There the
// interference is 0, so only the box's rounding margin keeps the
// grid's H- exit from dismissing a point HeardBy hears.
func TestLocateBoxEdgesMatchHeardBy(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{Workers: 1}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(2009))
	heard, checked := 0, 0
	for k := 0; k < 24; k++ {
		s := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		noise, beta, alpha := math.Exp(rng.Float64()*8-6), 1.5+4*rng.Float64(), float64(2+k%2)
		spec := registerReq("edge", []geom.Point{s}, noise, beta)
		spec.Alpha = alpha
		resp := postJSON(t, ts, "/v1/networks", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %s", resp.Status)
		}
		resp.Body.Close()
		net, err := core.NewNetwork([]geom.Point{s}, noise, beta, core.WithAlpha(alpha))
		if err != nil {
			t.Fatal(err)
		}
		// From 4 ulps inside to 8 ulps outside each edge of the
		// unmargined box of half-side r, on the lines through s.
		r := math.Pow(1/(beta*noise), 1/alpha)
		across := func(edge, dir float64) []float64 {
			for k := 0; k < 4; k++ {
				edge = math.Nextafter(edge, -dir*math.Inf(1))
			}
			vals := make([]float64, 13)
			for k := range vals {
				vals[k], edge = edge, math.Nextafter(edge, dir*math.Inf(1))
			}
			return vals
		}
		var pts []geom.Point
		for _, dir := range []float64{1, -1} {
			for _, x := range across(s.X+dir*r, dir) {
				pts = append(pts, geom.Pt(x, s.Y))
			}
			for _, y := range across(s.Y+dir*r, dir) {
				pts = append(pts, geom.Pt(s.X, y))
			}
		}
		want := heardAll(net, pts)
		for _, kind := range []string{"exact", "voronoi", "dynamic"} {
			req := LocateRequest{Network: "edge", Resolver: kind, Points: make([]PointJSON, len(pts))}
			for i, p := range pts {
				req.Points[i] = PointJSON{X: p.X, Y: p.Y}
			}
			resp := postJSON(t, ts, "/v1/locate", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s", kind, resp.Status)
			}
			out := decodeJSON[LocateResponse](t, resp)
			for i := range pts {
				if out.Results[i].Station != want[i] {
					t.Fatalf("%v %s: point %v served %d, HeardBy %d", net, kind, pts[i], out.Results[i].Station, want[i])
				}
			}
		}
		for _, w := range want {
			if w != NoStationHeard {
				heard++
			}
			checked++
		}
	}
	if heard == 0 || heard == checked {
		t.Fatalf("%d of %d probes heard: the probes must straddle the zone boundary", heard, checked)
	}
}

// TestPerNetworkDefaultResolver registers a network whose default
// backend is voronoi and checks a resolver-less request uses it,
// while an explicit per-request "locator" still overrides.
func TestPerNetworkDefaultResolver(t *testing.T) {
	stations := testStations(t, 8, 59)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg := registerReq("dflt", stations, 0.01, 3)
	reg.Resolver = "voronoi"
	resp := postJSON(t, ts, "/v1/networks", reg)
	ack := decodeJSON[NetworkResponse](t, resp)
	if ack.Resolver != "voronoi" {
		t.Fatalf("register ack resolver %q, want voronoi", ack.Resolver)
	}

	req := LocateRequest{Network: "dflt", Points: []PointJSON{{X: 0.3, Y: 0.4}}}
	out := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", req))
	if out.Resolver != "voronoi" {
		t.Fatalf("default resolver %q, want voronoi", out.Resolver)
	}
	req.Resolver = "locator"
	out = decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", req))
	if out.Resolver != "locator" {
		t.Fatalf("override resolver %q, want locator", out.Resolver)
	}
}

// TestResolverHotSwapBetweenBackends hot-swaps a network's default
// backend from locator to udg under traffic: answers before the swap
// are SINR-exact, answers after follow the UDG model, and no request
// fails in between.
func TestResolverHotSwapBetweenBackends(t *testing.T) {
	stations := testStations(t, 10, 61)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg := registerReq("swapkind", stations, 0.01, 3)
	resp := postJSON(t, ts, "/v1/networks", reg)
	resp.Body.Close()

	gen := workload.NewGenerator(67)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(300, box)
	req := LocateRequest{Network: "swapkind"}
	req.Points = make([]PointJSON, len(pts))
	for i, p := range pts {
		req.Points[i] = PointJSON{X: p.X, Y: p.Y}
	}

	out := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", req))
	if out.Resolver != "locator" {
		t.Fatalf("pre-swap resolver %q", out.Resolver)
	}
	sinrWant := heardAll(net, pts)
	for i := range pts {
		if out.Results[i].Station != sinrWant[i] {
			t.Fatalf("pre-swap answer %d: %d != %d", i, out.Results[i].Station, sinrWant[i])
		}
	}

	// Swap the same stations to a UDG default backend.
	reg.Resolver = "udg"
	resp = postJSON(t, ts, "/v1/networks", reg)
	resp.Body.Close()

	udgLocal, err := resolve.NewUDG(net)
	if err != nil {
		t.Fatal(err)
	}
	udgWant := make([]core.Location, len(pts))
	if err := udgLocal.ResolveBatch(context.Background(), pts, udgWant); err != nil {
		t.Fatal(err)
	}
	out = decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", req))
	if out.Resolver != "udg" || out.Version != 2 {
		t.Fatalf("post-swap resolver %q version %d", out.Resolver, out.Version)
	}
	differs := false
	for i := range pts {
		if out.Results[i].Station != resolve.StationIndex(udgWant[i]) {
			t.Fatalf("post-swap answer %d: %d != udg %d", i, out.Results[i].Station, resolve.StationIndex(udgWant[i]))
		}
		if out.Results[i].Station != sinrWant[i] {
			differs = true
		}
	}
	if !differs {
		t.Log("note: UDG and SINR agreed on every sampled point (possible but unusual)")
	}
}

// TestStreamResolverParam drives the NDJSON stream through a
// non-default backend and checks the answers match the local one.
func TestStreamResolverParam(t *testing.T) {
	stations := testStations(t, 8, 71)
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/networks", registerReq("streamkind", stations, 0.01, 3))
	resp.Body.Close()

	gen := workload.NewGenerator(73)
	box := geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6))
	pts := gen.QueryPoints(500, box)
	var in bytes.Buffer
	for _, p := range pts {
		fmt.Fprintf(&in, "{\"x\":%g,\"y\":%g}\n", p.X, p.Y)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/locate/stream?network=streamkind&resolver=exact",
		"application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	want := heardAll(net, pts)
	sc := bufio.NewScanner(resp.Body)
	i := 0
	for sc.Scan() {
		var r LocateResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Station != want[i] {
			t.Fatalf("stream answer %d: served %d, want %d", i, r.Station, want[i])
		}
		i++
	}
	if i != len(pts) {
		t.Fatalf("got %d answers for %d points", i, len(pts))
	}
}

// TestResolverErrors covers the new failure modes: unknown resolver
// names (register and locate), negative radii, and eps irrelevance
// for non-locator backends.
func TestResolverErrors(t *testing.T) {
	stations := testStations(t, 4, 79)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := registerReq("bad", stations, 0.01, 3)
	bad.Resolver = "psychic"
	resp := postJSON(t, ts, "/v1/networks", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown register resolver: %s", resp.Status)
	}
	resp.Body.Close()

	neg := registerReq("neg", stations, 0.01, 3)
	neg.Radius = -1
	resp = postJSON(t, ts, "/v1/networks", neg)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative register radius: %s", resp.Status)
	}
	resp.Body.Close()

	resp = postJSON(t, ts, "/v1/networks", registerReq("ok", stations, 0.01, 3))
	resp.Body.Close()

	req := LocateRequest{Network: "ok", Resolver: "psychic", Points: []PointJSON{{X: 1}}}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown locate resolver: %s", resp.Status)
	}
	resp.Body.Close()

	req = LocateRequest{Network: "ok", Resolver: "udg", Radius: -2, Points: []PointJSON{{X: 1}}}
	resp = postJSON(t, ts, "/v1/locate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative locate radius: %s", resp.Status)
	}
	resp.Body.Close()

	// A tiny eps is only a locator concern: the exact and UDG backends
	// must ignore it instead of rejecting the request. Exact builds
	// nothing; UDG builds once.
	before := srv.LocatorBuilds()
	for _, kind := range []string{"exact", "udg"} {
		req = LocateRequest{Network: "ok", Resolver: kind, Eps: 1e-9, Points: []PointJSON{{X: 1}}}
		resp = postJSON(t, ts, "/v1/locate", req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s backend rejected an (irrelevant) tiny eps: %s", kind, resp.Status)
		}
		resp.Body.Close()
	}
	if got := srv.LocatorBuilds(); got != before+1 {
		t.Errorf("build count advanced by %d, want 1 (the udg build)", got-before)
	}

	// Requests differing only in an ignored knob share one resolver.
	req = LocateRequest{Network: "ok", Resolver: "udg", Eps: 0.3, Points: []PointJSON{{X: 1}}}
	resp = postJSON(t, ts, "/v1/locate", req)
	resp.Body.Close()
	if got := srv.LocatorBuilds(); got != before+1 {
		t.Errorf("ignored eps split the cache: %d builds, want 1", got-before)
	}
}

// TestNaNKnobsRejectedBeforeCaching checks NaN/Inf eps and radius are
// rejected before they can become cache-key material: a NaN float in
// a map key never matches on lookup or delete, so an accepted NaN
// would mean one fresh build plus one permanently leaked cache entry
// per request.
func TestNaNKnobsRejectedBeforeCaching(t *testing.T) {
	stations := testStations(t, 4, 83)
	srv := NewServer(Options{MaxLocators: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/networks", registerReq("nan", stations, 0.01, 3))
	resp.Body.Close()

	for _, url := range []string{
		"/v1/locate/stream?network=nan&resolver=udg&radius=NaN",
		"/v1/locate/stream?network=nan&resolver=udg&radius=+Inf",
		"/v1/locate/stream?network=nan&resolver=locator&eps=NaN",
	} {
		for i := 0; i < 5; i++ {
			resp, err := ts.Client().Post(ts.URL+url, "application/x-ndjson", strings.NewReader("{\"x\":0,\"y\":0}\n"))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: %s, want 400", url, resp.Status)
			}
			resp.Body.Close()
		}
	}
	if got := srv.LocatorBuilds(); got != 0 {
		t.Errorf("NaN knobs started %d builds, want 0", got)
	}
	if got := srv.resolvers.Len(); got != 0 {
		t.Errorf("NaN knobs leaked %d cache entries, want 0", got)
	}

	// A non-finite register-time radius is rejected too; JSON itself
	// cannot carry NaN, so an overflowing literal stands in for it
	// (rejected at decode or at the finite-radius check — 400 either
	// way).
	resp, err := ts.Client().Post(ts.URL+"/v1/networks", "application/json",
		strings.NewReader(`{"name":"inf","stations":[{"x":0,"y":0}],"noise":0.01,"beta":3,"radius":1e400}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("Inf register radius: %s, want 400", resp.Status)
	}
	resp.Body.Close()
}
