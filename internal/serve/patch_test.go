package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/workload"
)

// patchJSON issues a PATCH /v1/networks/{name} with the given delta.
func patchJSON(t *testing.T, ts *httptest.Server, name string, delta NetworkDeltaRequest) *http.Response {
	t.Helper()
	b, err := json.Marshal(delta)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/networks/"+name, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPatchLifecycle drives the mutation API end to end: register,
// apply deltas (add / remove / set_power), and after each delta check
// the version bumps, the epoch tracks it, and every resolver kind
// answers /v1/locate exactly like a from-scratch network on the
// current station set.
func TestPatchLifecycle(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stations := testStations(t, 8, 41)
	resp := postJSON(t, ts, "/v1/networks", registerReq("churn", stations, 0.01, 3))
	reg := decodeJSON[NetworkResponse](t, resp)
	if reg.Version != 1 {
		t.Fatalf("registered version %d, want 1", reg.Version)
	}

	// Mirror of the server-side station set.
	pts := append([]geom.Point(nil), stations...)
	powers := make([]float64, len(pts))
	for i := range powers {
		powers[i] = 1
	}

	deltas := []NetworkDeltaRequest{
		{Add: []DeltaStationJSON{{X: 1.25, Y: -3.5}}},
		{Remove: []int{2}},
		{SetPower: []PowerUpdateJSON{{Station: 1, Power: 1.4}}},
		{SetPower: []PowerUpdateJSON{{Station: 0, Power: 1.2}}, Remove: []int{4}, Add: []DeltaStationJSON{{X: -2, Y: 2, Power: 1.1}}},
	}
	probes := workload.NewGenerator(42).QueryPoints(150, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))

	for di, d := range deltas {
		// Apply to the mirror with the documented phase semantics.
		for _, pu := range d.SetPower {
			powers[pu.Station] = pu.Power
		}
		for _, i := range d.Remove {
			pts = append(pts[:i:i], pts[i+1:]...)
			powers = append(powers[:i:i], powers[i+1:]...)
		}
		for _, st := range d.Add {
			p := st.Power
			if p == 0 {
				p = 1
			}
			pts = append(pts, geom.Pt(st.X, st.Y))
			powers = append(powers, p)
		}

		got := decodeJSON[NetworkResponse](t, patchJSON(t, ts, "churn", d))
		wantVersion := uint64(2 + di)
		if got.Version != wantVersion || got.Epoch != wantVersion || got.Stations != len(pts) {
			t.Fatalf("delta %d: response %+v, want version=epoch=%d stations=%d", di, got, wantVersion, len(pts))
		}
		if got.ApplyPath != "incremental" && got.ApplyPath != "rebuild" {
			t.Fatalf("delta %d: apply_path %q", di, got.ApplyPath)
		}

		scratch, err := core.NewNetwork(pts, 0.01, 3, core.WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		kinds := []string{"dynamic", "exact", "voronoi"}
		if scratch.IsUniform() {
			kinds = append(kinds, "locator")
		}
		for _, kind := range kinds {
			req := LocateRequest{Network: "churn", Resolver: kind}
			for _, p := range probes {
				req.Points = append(req.Points, PointJSON{X: p.X, Y: p.Y})
			}
			lr := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", req))
			if lr.Version != wantVersion {
				t.Fatalf("delta %d kind %s: answered from version %d, want %d", di, kind, lr.Version, wantVersion)
			}
			for i, p := range probes {
				want := NoStationHeard
				if idx, ok := scratch.HeardBy(p); ok {
					want = idx
				}
				if lr.Results[i].Station != want {
					t.Fatalf("delta %d kind %s: station %d at %v, want %d", di, kind, lr.Results[i].Station, p, want)
				}
			}
		}
	}
}

// TestPatchErrors covers the failure surface: unknown network, bad
// delta documents, and non-PATCH methods on the name route.
func TestPatchErrors(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp := patchJSON(t, ts, "ghost", NetworkDeltaRequest{Remove: []int{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("patch of unknown network: %s", resp.Status)
	} else {
		resp.Body.Close()
	}

	resp := postJSON(t, ts, "/v1/networks", registerReq("p", testStations(t, 4, 43), 0.01, 3))
	resp.Body.Close()

	bad := []NetworkDeltaRequest{
		{Remove: []int{9}},
		{Remove: []int{0, 0}},
		{Remove: []int{0, 1, 2, 3}},
		{SetPower: []PowerUpdateJSON{{Station: 0, Power: -2}}},
	}
	for i, d := range bad {
		resp := patchJSON(t, ts, "p", d)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad delta %d: %s", i, resp.Status)
		}
		resp.Body.Close()
	}
	// Rejected deltas must not consume versions.
	got := decodeJSON[NetworkResponse](t, patchJSON(t, ts, "p", NetworkDeltaRequest{Add: []DeltaStationJSON{{X: 0.5, Y: 0.5}}}))
	if got.Version != 2 {
		t.Fatalf("version %d after rejected deltas, want 2", got.Version)
	}
}

// rawRequest sends body verbatim, so a test can put bytes after the
// JSON document that json.Marshal would never produce.
func rawRequest(t *testing.T, ts *httptest.Server, method, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPatchTrailingDeltaRejected pins one delta per PATCH body: two
// concatenated deltas answer 400 and apply neither, so the version and
// the station count stay where they were. A trailing newline after a
// single delta stays valid.
func TestPatchTrailingDeltaRejected(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{Workers: 1}))
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("n", testStations(t, 4, 43), 0.01, 3)).Body.Close()

	state := func() (string, int) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/networks/n")
		if err != nil {
			t.Fatal(err)
		}
		spec := decodeJSON[NetworkSpec](t, resp)
		return resp.Header.Get("Sinr-Network-Version"), len(spec.Stations)
	}
	ver, stations := state()

	resp := rawRequest(t, ts, http.MethodPatch, "/v1/networks/n",
		`{"add":[{"x":9,"y":9}]}{"add":[{"x":-9,"y":-9}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two concatenated deltas: %s, want 400", resp.Status)
	}
	if v, n := state(); v != ver || n != stations {
		t.Fatalf("rejected body changed the network: version %s -> %s, stations %d -> %d", ver, v, stations, n)
	}

	resp = rawRequest(t, ts, http.MethodPatch, "/v1/networks/n", "{\"add\":[{\"x\":9,\"y\":9}]}\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one delta and a trailing newline: %s, want 200", resp.Status)
	}
	if _, n := state(); n != stations+1 {
		t.Fatalf("%d stations after one added, want %d", n, stations+1)
	}
}

// TestPatchDuringStreamPinsEpochAndReleasesResolver is the
// PATCH-vs-stream race test: an NDJSON stream starts on one
// generation, a delta lands mid-stream, and the stream must (a) finish
// every answer on its pinned epoch, (b) leak no goroutines, and (c)
// leave the superseded generation's cached (UDG) resolver released
// from the cache once new traffic lands. Run with -race.
func TestPatchDuringStreamPinsEpochAndReleasesResolver(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stations := testStations(t, 6, 44)
	resp := postJSON(t, ts, "/v1/networks", registerReq("pin", stations, 0.01, 3))
	resp.Body.Close()

	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 400
	probes := workload.NewGenerator(45).QueryPoints(queries, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
	truth := make([]int, queries)
	for i, p := range probes {
		truth[i] = NoStationHeard
		if idx, ok := net.HeardBy(p); ok {
			truth[i] = idx
		}
	}

	ts.Client().CloseIdleConnections()
	before := runtime.NumGoroutine()

	// Full-duplex stream: feed the first half, wait for answers (so the
	// stream is provably mid-flight), PATCH, then feed the rest.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/locate/stream?network=pin&resolver=dynamic", pr)
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

	writeProbe := func(p geom.Point) {
		if _, err := fmt.Fprintf(pw, "{\"x\":%g,\"y\":%g}\n", p.X, p.Y); err != nil {
			t.Errorf("writing stream: %v", err)
		}
	}
	for _, p := range probes[:queries/2] {
		writeProbe(p)
	}

	var streamResp *http.Response
	select {
	case streamResp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("stream never produced response headers")
	}
	defer streamResp.Body.Close()
	if v := streamResp.Header.Get("Sinr-Network-Version"); v != "1" {
		t.Fatalf("stream pinned to version %s, want 1", v)
	}
	// The dynamic stream wraps its epoch and caches nothing; a UDG
	// batch puts a resolver of generation 1 into the cache.
	postJSON(t, ts, "/v1/locate", LocateRequest{
		Network: "pin", Resolver: "udg", Points: []PointJSON{{X: 0.1, Y: 0.2}},
	}).Body.Close()
	if got := srv.resolvers.Len(); got != 1 {
		t.Fatalf("cache holds %d resolvers before the swap, want 1", got)
	}

	sc := bufio.NewScanner(streamResp.Body)
	read := 0
	readAnswer := func() LocateResult {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d answers: %v", read, sc.Err())
		}
		var res LocateResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("answer %d: %v (%s)", read, err, sc.Bytes())
		}
		read++
		return res
	}
	for i := 0; i < queries/2; i++ {
		if res := readAnswer(); res.Station != truth[i] {
			t.Fatalf("pre-patch answer %d: station %d, want %d", i, res.Station, truth[i])
		}
	}

	// Mid-stream: move every station. The stream must not notice.
	delta := NetworkDeltaRequest{Add: []DeltaStationJSON{{X: 0.1, Y: 0.2}}}
	for i := range stations {
		delta.Remove = append(delta.Remove, i)
	}
	got := decodeJSON[NetworkResponse](t, patchJSON(t, ts, "pin", delta))
	if got.Version != 2 || got.Stations != 1 {
		t.Fatalf("patch response %+v", got)
	}

	for _, p := range probes[queries/2:] {
		writeProbe(p)
	}
	pw.Close()
	for i := queries / 2; i < queries; i++ {
		if res := readAnswer(); res.Station != truth[i] {
			t.Fatalf("post-patch answer %d: station %d, want %d — stream not pinned to its epoch", i, res.Station, truth[i])
		}
	}
	if sc.Scan() {
		t.Fatalf("unexpected trailing line: %s", sc.Bytes())
	}

	// New traffic lands on the new generation and, with the swap done,
	// the superseded generation's resolver is released from the cache.
	lr := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate",
		LocateRequest{Network: "pin", Resolver: "udg", Points: []PointJSON{{X: 0.1, Y: 0.2}}}))
	if lr.Version != 2 {
		t.Fatalf("post-patch batch answered from version %d, want 2", lr.Version)
	}
	if lr.Results[0].Station != 0 {
		t.Fatalf("post-patch network answers station %d at its own station, want 0", lr.Results[0].Station)
	}
	if got := srv.resolvers.Len(); got != 1 {
		t.Fatalf("cache holds %d resolvers after the swap, want 1 (superseded epoch released)", got)
	}

	// Every stream goroutine must be gone. Idle keep-alive connections
	// hold goroutines of their own; close them so the count isolates
	// the stream pipeline (plus a generous margin for other tests'
	// stragglers winding down).
	streamResp.Body.Close()
	ts.Client().CloseIdleConnections()
	if after := waitForServeGoroutines(before, 5*time.Second); after > before+3 {
		t.Fatalf("goroutines: %d before stream, %d after — PATCH racing a stream leaks", before, after)
	}
}

// waitForServeGoroutines polls until the goroutine count returns to
// roughly base, absorbing scheduler lag.
func waitForServeGoroutines(base int, deadline time.Duration) int {
	var n int
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		n = runtime.NumGoroutine()
		if n <= base+3 {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestExactKindsNeverTouchTheCache PATCHes a network repeatedly while
// querying the exact, voronoi and dynamic kinds: each answer equals
// HeardBy on the generation its response names, each response echoes
// the kind it asked for, and the resolver cache never builds or holds
// a resolver — these kinds answer from resolvers their generation
// owns. Arrivals carry power 2, so later generations take the
// non-uniform (strongest-signal) path.
func TestExactKindsNeverTouchTheCache(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const generations = 12
	base, arrivals := testStations(t, 10, 95), testStations(t, generations-1, 96)
	probes := workload.NewGenerator(97).QueryPoints(200, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
	// truth[v] answers the probes on generation v: the base stations
	// plus the first v-1 arrivals.
	truth := make([][]int, generations+1)
	for v := 1; v <= generations; v++ {
		pts := append(append([]geom.Point(nil), base...), arrivals[:v-1]...)
		powers := make([]float64, len(pts))
		for i := range powers {
			powers[i] = 1
			if i >= len(base) {
				powers[i] = 2
			}
		}
		net, err := core.NewNetwork(pts, 0.01, 3, core.WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		truth[v] = heardAll(net, probes)
	}
	postJSON(t, ts, "/v1/networks", registerReq("bypass", base, 0.01, 3)).Body.Close()

	locate := func(kind string) error {
		req := LocateRequest{Network: "bypass", Resolver: kind}
		for _, p := range probes {
			req.Points = append(req.Points, PointJSON{X: p.X, Y: p.Y})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var lr LocateResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			return fmt.Errorf("%s: %s: %v", kind, resp.Status, err)
		}
		if lr.Resolver != kind {
			return fmt.Errorf("asked for %s, response names %q", kind, lr.Resolver)
		}
		if lr.Version < 1 || lr.Version > generations {
			return fmt.Errorf("%s: answered from unknown version %d", kind, lr.Version)
		}
		for i, r := range lr.Results {
			if want := truth[lr.Version][i]; r.Station != want {
				return fmt.Errorf("%s, version %d: station %d at %v, HeardBy %d", kind, lr.Version, r.Station, probes[i], want)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Runs before ts.Close even when a PATCH check fails the test.
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()
	for _, kind := range []string{"exact", "voronoi", "dynamic"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := locate(kind); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for v := 2; v <= generations; v++ {
		a := arrivals[v-2]
		got := decodeJSON[NetworkResponse](t, patchJSON(t, ts, "bypass",
			NetworkDeltaRequest{Add: []DeltaStationJSON{{X: a.X, Y: a.Y, Power: 2}}}))
		if got.Version != uint64(v) {
			t.Fatalf("patch %d: version %d", v, got.Version)
		}
	}
	stopReaders()

	if got := srv.LocatorBuilds(); got != 0 {
		t.Errorf("LocatorBuilds = %d, want 0", got)
	}
	if v := mustValue(t, scrapeMetrics(t, ts), "sinr_resolver_cache_entries"); v != 0 {
		t.Errorf("sinr_resolver_cache_entries = %g, want 0", v)
	}
}

// decodeDelta runs the PATCH handler's decode on body.
func decodeDelta(body []byte) (dynamic.Delta, error) {
	var req NetworkDeltaRequest
	err := decodeDocument(json.NewDecoder(bytes.NewReader(body)), &req)
	return req.delta(), err
}

// FuzzPatchDelta holds WireDelta to the PATCH decoder: any body the
// decoder accepts becomes a delta that comes back unchanged through
// WireDelta, json.Marshal and a second decode (nil and empty lists
// compare equal). Its corpus is committed under
// testdata/fuzz/FuzzPatchDelta.
func FuzzPatchDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := decodeDelta(body)
		if err != nil {
			return
		}
		wire, err := json.Marshal(WireDelta(d))
		if err != nil {
			t.Fatalf("body %q: marshaling the decoded delta: %v", body, err)
		}
		back, err := decodeDelta(wire)
		if err != nil {
			t.Fatalf("body %q: re-encoded as %s, which does not decode: %v", body, wire, err)
		}
		if !slices.Equal(d.SetPower, back.SetPower) || !slices.Equal(d.Remove, back.Remove) || !slices.Equal(d.Add, back.Add) {
			t.Fatalf("body %q: decoded %+v, round-tripped through %s to %+v", body, d, wire, back)
		}
	})
}
