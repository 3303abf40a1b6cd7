package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// locateTraced posts one small locate batch carrying traceparent (when
// non-empty) and returns the response after asserting 200.
func locateTraced(t *testing.T, ts *httptest.Server, network, traceparent string) *http.Response {
	t.Helper()
	req := LocateRequest{Network: network, Eps: 0.1, Points: []PointJSON{{X: 0.5, Y: 0.5}, {X: -1, Y: 2}}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/locate", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("Traceparent", traceparent)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate: %s", resp.Status)
	}
	return resp
}

func TestTraceparentAdoptionAndFlightRecorder(t *testing.T) {
	stations := testStations(t, 16, 5)
	srv := NewServer(Options{EnableDebugRequests: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("traced", stations, 0.01, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	resp.Body.Close()

	const sent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sentID, sentSpan, ok := trace.ParseTraceparent(sent)
	if !ok {
		t.Fatal("test traceparent does not parse")
	}
	resp = locateTraced(t, ts, "traced", sent)
	echo := resp.Header.Get("Traceparent")
	resp.Body.Close()
	echoID, echoSpan, ok := trace.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if echoID != sentID {
		t.Fatalf("trace ID not adopted: sent %s, echoed %s", sentID, echoID)
	}
	if echoSpan == sentSpan {
		t.Fatalf("server echoed the caller's span ID %s instead of its own", echoSpan)
	}

	dresp, err := ts.Client().Get(ts.URL + "/debug/requests?route=locate")
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: %s", dresp.Status)
	}
	caps := decodeJSON[[]trace.Captured](t, dresp)
	var got *trace.Captured
	for i := range caps {
		if caps[i].TraceID == sentID.String() {
			got = &caps[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("trace %s not in the flight recorder (%d captured)", sentID, len(caps))
	}
	if got.Route != "locate" || got.Network != "traced" || got.Status != http.StatusOK {
		t.Fatalf("captured = %+v", got)
	}
	names := make(map[string]bool, len(got.Spans))
	for _, sp := range got.Spans {
		names[sp.Name] = true
		if sp.DurationMS < 0 || sp.StartMS < 0 {
			t.Fatalf("span %q has negative timing: %+v", sp.Name, sp)
		}
	}
	for _, want := range []string{"decode", "resolver.build", "resolve.batch", "encode"} {
		if !names[want] {
			t.Errorf("span %q missing from captured trace, have %v", want, names)
		}
	}

	// A second locate hits the cached resolver: its trace records the
	// hit span, not a build.
	resp = locateTraced(t, ts, "traced", "")
	tp := resp.Header.Get("Traceparent")
	resp.Body.Close()
	id2, _, ok := trace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("generated traceparent %q does not parse", tp)
	}
	dresp, err = ts.Client().Get(ts.URL + "/debug/requests?route=locate")
	if err != nil {
		t.Fatal(err)
	}
	caps = decodeJSON[[]trace.Captured](t, dresp)
	found := false
	for _, c := range caps {
		if c.TraceID != id2.String() {
			continue
		}
		found = true
		for _, sp := range c.Spans {
			if sp.Name == "resolver.build" {
				t.Errorf("cache-hit request recorded a build span: %+v", c.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("generated trace %s not captured", id2)
	}

	// An unreachable min duration yields an empty array, not null.
	dresp, err = ts.Client().Get(ts.URL + "/debug/requests?route=locate&min=1h")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Fatalf("min=1h snapshot = %q, want []", got)
	}

	// Malformed min is a client error; non-GET is rejected.
	dresp, err = ts.Client().Get(ts.URL + "/debug/requests?min=bogus")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusBadRequest {
		t.Errorf("min=bogus: %s, want 400", dresp.Status)
	}
	dresp, err = ts.Client().Post(ts.URL+"/debug/requests", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/requests: %s, want 405", dresp.Status)
	}
}

// TestDeleteNetworkDropsFlightRecorderAndExemplars is the regression
// test for observability eviction: after DELETE /v1/networks/{name}
// (the same path reconcile eviction takes), the flight recorder holds
// no trace for the network and the latency histograms carry no
// exemplar captured under it.
func TestDeleteNetworkDropsFlightRecorderAndExemplars(t *testing.T) {
	stations := testStations(t, 16, 7)
	srv := NewServer(Options{EnableDebugRequests: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("victim", stations, 0.01, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	resp.Body.Close()
	locateTraced(t, ts, "victim", "").Body.Close()

	scrape := func() string {
		t.Helper()
		// Exemplars only ride the negotiated OpenMetrics exposition.
		mreq, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		mreq.Header.Set("Accept", "application/openmetrics-text")
		mresp, err := ts.Client().Do(mreq)
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		b, err := io.ReadAll(mresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	locateExemplar := func(exposition string) bool {
		for _, line := range strings.Split(exposition, "\n") {
			if strings.Contains(line, `route="locate"`) && strings.Contains(line, `# {trace_id=`) {
				return true
			}
		}
		return false
	}

	// Preconditions: the load left a captured trace and an exemplar.
	if caps := srv.recorder.Snapshot("locate", 0); len(caps) == 0 || caps[0].Network != "victim" {
		t.Fatalf("precondition: recorder snapshot = %+v", caps)
	}
	if !locateExemplar(scrape()) {
		t.Fatal("precondition: no exemplar on the locate latency histogram")
	}

	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/networks/victim", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", dresp.Status)
	}

	for _, c := range srv.recorder.Snapshot("", 0) {
		if c.Network == "victim" {
			t.Errorf("deleted network still in the flight recorder: %+v", c)
		}
	}
	after := scrape()
	if locateExemplar(after) {
		t.Error("deleted network's exemplar still on the locate latency histogram")
	}
	// The request counters themselves survive the eviction — only the
	// exemplar references go.
	if !strings.Contains(after, `route="locate"`) {
		t.Error("locate series vanished entirely; only exemplars should drop")
	}

	// The recorder keeps serving other networks' traces after a drop.
	resp = postJSON(t, ts, "/v1/networks", registerReq("keeper", stations, 0.01, 3))
	resp.Body.Close()
	locateTraced(t, ts, "keeper", "").Body.Close()
	caps := srv.recorder.Snapshot("locate", 0)
	if len(caps) == 0 || caps[0].Network != "keeper" {
		t.Fatalf("post-delete snapshot = %+v", caps)
	}
	if !locateExemplar(scrape()) {
		t.Error("no exemplar recorded for the surviving network")
	}
}

// TestDebugSurfacesAreOptIn pins the debug-surface policy: with default
// options neither /debug/requests nor /debug/pprof is mounted, and the
// classic /metrics exposition carries no exemplar syntax.
func TestDebugSurfacesAreOptIn(t *testing.T) {
	stations := testStations(t, 16, 13)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("closed", stations, 0.01, 3))
	resp.Body.Close()
	locateTraced(t, ts, "closed", "").Body.Close()

	dresp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/requests without opt-in: %s, want 404", dresp.Status)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default /metrics Content-Type = %q", ct)
	}
	if strings.Contains(string(body), "# {trace_id=") || strings.Contains(string(body), "# EOF") {
		t.Errorf("OpenMetrics syntax leaked into the text/plain scrape:\n%s", body)
	}
}

// TestDebugRequestsMinFilter drives the min-duration filter through a
// real captured trace: min=0 includes it, a just-above-total min
// excludes it.
func TestDebugRequestsMinFilter(t *testing.T) {
	stations := testStations(t, 16, 11)
	srv := NewServer(Options{EnableDebugRequests: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("f", stations, 0.01, 3))
	resp.Body.Close()
	locateTraced(t, ts, "f", "").Body.Close()

	caps := srv.recorder.Snapshot("locate", 0)
	if len(caps) != 1 {
		t.Fatalf("snapshot = %+v", caps)
	}
	over := time.Duration((caps[0].DurationMS+1)*float64(time.Millisecond)) + time.Millisecond
	dresp, err := ts.Client().Get(ts.URL + "/debug/requests?route=locate&min=" + over.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeJSON[[]trace.Captured](t, dresp); len(got) != 0 {
		t.Fatalf("min=%v returned %+v", over, got)
	}
}
