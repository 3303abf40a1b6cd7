package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// swapStations returns the station set of generation v — each
// generation is a different geometry, so answers distinguish versions.
func swapStations(t *testing.T, v uint64) []geom.Point {
	t.Helper()
	return testStations(t, 5, int64(4000+v))
}

// swapNet rebuilds generation v's network exactly as the server does
// (the wire round-trips float64 coordinates losslessly).
func swapNet(t *testing.T, v uint64) *core.Network {
	t.Helper()
	net, err := core.NewUniform(swapStations(t, v), 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestStreamHotSwapConsistency is the spatial-index/hot-swap race
// test: goroutines stream locator-backend queries while the main
// goroutine keeps replacing the network. Every stream must answer
// entirely from the snapshot it started on — the echoed
// Sinr-Network-Version pins which generation that was, and every
// answer line must equal the exact ground truth of that generation
// (the locator backend resolves H? exactly, so any index/network
// mismatch would surface as a wrong station). Run with -race.
func TestStreamHotSwapConsistency(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		generations = 6
		streams     = 4
		queries     = 200
	)

	// Ground truth per generation, computed before any traffic.
	truth := make(map[uint64][]int, generations)
	gen := workload.NewGenerator(999)
	pts := gen.QueryPoints(queries, geom.NewBox(geom.Pt(-6, -6), geom.Pt(6, 6)))
	var payload bytes.Buffer
	for _, p := range pts {
		fmt.Fprintf(&payload, "{\"x\":%g,\"y\":%g}\n", p.X, p.Y)
	}
	for v := uint64(1); v <= generations; v++ {
		net := swapNet(t, v)
		ans := make([]int, len(pts))
		for i, p := range pts {
			ans[i] = NoStationHeard
			if idx, ok := net.HeardBy(p); ok {
				ans[i] = idx
			}
		}
		truth[v] = ans
	}

	register := func(v uint64) {
		resp := postJSON(t, ts, "/v1/networks", registerReq("swap", swapStations(t, v), 0.01, 3))
		got := decodeJSON[NetworkResponse](t, resp)
		if got.Version != v {
			t.Errorf("registered generation %d got version %d", v, got.Version)
		}
	}
	register(1)

	var wg sync.WaitGroup
	// Roomy enough for every goroutine's worst case (several errors
	// per round), so a broadly failing server reports instead of
	// deadlocking the senders.
	errs := make(chan error, streams*3*4)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker opens streams back to back while swaps are
			// happening; every stream is checked against the snapshot
			// version it reports.
			for round := 0; round < 3; round++ {
				resp, err := ts.Client().Post(
					ts.URL+"/v1/locate/stream?network=swap&resolver=locator&eps=0.3",
					"application/x-ndjson", bytes.NewReader(payload.Bytes()))
				if err != nil {
					errs <- err
					return
				}
				v, err := strconv.ParseUint(resp.Header.Get("Sinr-Network-Version"), 10, 64)
				if err != nil {
					resp.Body.Close()
					errs <- fmt.Errorf("bad version header %q: %v", resp.Header.Get("Sinr-Network-Version"), err)
					return
				}
				want, ok := truth[v]
				if !ok {
					resp.Body.Close()
					errs <- fmt.Errorf("stream reports unknown version %d", v)
					return
				}
				sc := bufio.NewScanner(resp.Body)
				i := 0
				for sc.Scan() {
					var res LocateResult
					if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
						errs <- fmt.Errorf("line %d: %v (%s)", i, err, sc.Bytes())
						break
					}
					if i >= len(want) {
						errs <- fmt.Errorf("version %d: more answers than queries", v)
						break
					}
					if res.Station != want[i] {
						errs <- fmt.Errorf("version %d, point %d: got station %d, want %d — answer does not match the stream's snapshot",
							v, i, res.Station, want[i])
						break
					}
					i++
				}
				resp.Body.Close()
				if i != len(want) {
					errs <- fmt.Errorf("version %d: stream truncated at %d/%d", v, i, len(want))
					return
				}
			}
		}()
	}

	// Hot-swap through the remaining generations while the streams run.
	for v := uint64(2); v <= generations; v++ {
		register(v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPEvictionRebuildsCurrentSnapshot drives eviction through the
// HTTP surface across hot swaps: old generations are invalidated on
// swap and never resurrect, and answers always follow the latest
// registration.
func TestHTTPEvictionRebuildsCurrentSnapshot(t *testing.T) {
	srv := NewServer(Options{MaxLocators: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	query := LocateRequest{Network: "evict", Points: []PointJSON{{X: 0.05, Y: -0.1}}}
	for v := uint64(1); v <= 4; v++ {
		resp := postJSON(t, ts, "/v1/networks", registerReq("evict", swapStations(t, v), 0.01, 3))
		resp.Body.Close()
		got := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", query))
		if got.Version != v {
			t.Fatalf("swap %d: answered from version %d", v, got.Version)
		}
		net := swapNet(t, v)
		want := NoStationHeard
		if idx, ok := net.HeardBy(geom.Pt(0.05, -0.1)); ok {
			want = idx
		}
		if got.Results[0].Station != want {
			t.Fatalf("swap %d: station %d, want %d", v, got.Results[0].Station, want)
		}
	}
	if got := srv.resolvers.Len(); got > 2 {
		t.Fatalf("cache len %d exceeds cap 2 after swaps", got)
	}
}

// TestPooledRequestScratchDoesNotLeak pins the pooled-scratch
// hygiene of the batch handler: a request with omitted point fields
// must decode them as zero, never inherit coordinates a previous
// request left in the recycled Points array.
func TestPooledRequestScratchDoesNotLeak(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stations := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 5}}
	resp := postJSON(t, ts, "/v1/networks", registerReq("leak", stations, 0.01, 2))
	resp.Body.Close()

	net, err := core.NewUniform(stations, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantAt := func(p geom.Point) int {
		if idx, ok := net.HeardBy(p); ok {
			return idx
		}
		return NoStationHeard
	}

	// Serial requests share the one pooled scratch. The first fills
	// the Points array with y=5 coordinates; the second omits "y"
	// entirely, which must mean y=0 — answered by station 0, not the
	// station 1 a leaked y=5 would pick.
	first := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate",
		LocateRequest{Network: "leak", Points: []PointJSON{{X: 0.2, Y: 5}, {X: 0.1, Y: 4.9}}}))
	if got, want := first.Results[0].Station, wantAt(geom.Pt(0.2, 5)); got != want {
		t.Fatalf("warm-up answer %d, want %d", got, want)
	}
	var second LocateResponse
	{
		resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json",
			bytes.NewReader([]byte(`{"network":"leak","points":[{"x":0.2}]}`)))
		if err != nil {
			t.Fatal(err)
		}
		second = decodeJSON[LocateResponse](t, resp)
	}
	if got, want := second.Results[0].Station, wantAt(geom.Pt(0.2, 0)); got != want {
		t.Fatalf("omitted-y point answered %d, want %d — pooled scratch leaked a previous request's coordinates", got, want)
	}
}
