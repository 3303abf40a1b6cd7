package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"testing"

	"repro/internal/metrics"
)

// TestMetricsEndpointCounts drives known traffic through the server
// and asserts the exposition reports exactly it: request counts by
// route and status class, per-resolver query and latency series, the
// resolver-cache counters, the per-network gauges, and the epoch-lag
// histogram all line up with what actually happened.
func TestMetricsEndpointCounts(t *testing.T) {
	_, ts := admissionServer(t, Options{}, "m")

	locate := func(points int) {
		req := LocateRequest{Network: "m", Resolver: "udg"}
		req.Points = make([]PointJSON, points)
		resp := postJSON(t, ts, "/v1/locate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("locate: %s", resp.Status)
		}
		resp.Body.Close()
	}
	locate(2)
	locate(2)
	locate(2)

	// One 404 for the 4xx class.
	resp := postJSON(t, ts, "/v1/locate", LocateRequest{Network: "nope", Points: []PointJSON{{}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown network: %s", resp.Status)
	}
	resp.Body.Close()

	samples := scrapeMetrics(t, ts)

	checks := []struct {
		name   string
		labels []metrics.Label
		want   float64
	}{
		{"sinr_http_requests_total", []metrics.Label{metrics.L("route", "locate"), metrics.L("code", "2xx")}, 3},
		{"sinr_http_requests_total", []metrics.Label{metrics.L("route", "locate"), metrics.L("code", "4xx")}, 1},
		{"sinr_http_requests_total", []metrics.Label{metrics.L("route", "networks"), metrics.L("code", "2xx")}, 1},
		{"sinr_http_request_seconds_count", []metrics.Label{metrics.L("route", "locate")}, 4},
		{"sinr_locate_queries_total", []metrics.Label{metrics.L("resolver", "udg")}, 6},
		{"sinr_resolve_seconds_count", []metrics.Label{metrics.L("resolver", "udg")}, 3},
		{"sinr_resolver_cache_misses_total", nil, 1},
		{"sinr_resolver_cache_hits_total", nil, 2},
		{"sinr_resolver_cache_entries", nil, 1},
		{"sinr_network_stations", []metrics.Label{metrics.L("network", "m")}, 8},
		{"sinr_network_version", []metrics.Label{metrics.L("network", "m")}, 1},
		{"sinr_locate_epoch_lag_count", nil, 3},
		// The scrape request itself is mid-flight while the document is
		// written, so the gauge reads exactly 1.
		{"sinr_http_inflight", nil, 1},
		{"sinr_admission_queued", nil, 0},
	}
	for _, c := range checks {
		if v := mustValue(t, samples, c.name, c.labels...); v != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, v, c.want)
		}
	}

	// Steady state: every lag observation landed in the le="0" bucket.
	buckets := metrics.Buckets(samples, "sinr_locate_epoch_lag")
	if len(buckets) == 0 || buckets[0].LE != 0 || buckets[0].Count != 3 {
		t.Errorf("epoch lag buckets = %v, want le=0 count=3 first", buckets)
	}

	// The runtime gauges ride along on every scrape.
	if v := mustValue(t, samples, "go_goroutines"); v <= 0 {
		t.Errorf("go_goroutines = %g, want > 0", v)
	}

	// The scrape itself is instrumented: a second scrape sees the first.
	again := scrapeMetrics(t, ts)
	if v := mustValue(t, again, "sinr_http_requests_total",
		metrics.L("route", "metrics"), metrics.L("code", "2xx")); v != 1 {
		t.Errorf("metrics route counter = %g after one scrape, want 1", v)
	}
}

// TestMetricsLatencyBucketsMonotone sanity-checks the histogram shape
// on the wire: cumulative bucket counts are non-decreasing and the
// +Inf bucket equals the series count.
func TestMetricsLatencyBucketsMonotone(t *testing.T) {
	_, ts := admissionServer(t, Options{}, "m")
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts, "/v1/locate",
			LocateRequest{Network: "m", Resolver: "exact", Points: []PointJSON{{X: 1}}})
		resp.Body.Close()
	}
	samples := scrapeMetrics(t, ts)
	buckets := metrics.Buckets(samples, "sinr_http_request_seconds", metrics.L("route", "locate"))
	if len(buckets) == 0 {
		t.Fatal("no latency buckets for route=locate")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Count < buckets[i-1].Count {
			t.Fatalf("bucket counts not cumulative: %v", buckets)
		}
	}
	if total := buckets[len(buckets)-1].Count; total != 5 {
		t.Fatalf("+Inf bucket = %g, want 5", total)
	}
	count := mustValue(t, samples, "sinr_http_request_seconds_count", metrics.L("route", "locate"))
	if count != buckets[len(buckets)-1].Count {
		t.Fatalf("series count %g != +Inf bucket %g", count, buckets[len(buckets)-1].Count)
	}
	// The server-side median of five sub-second requests is a sane
	// sub-second number — the estimator sinrload uses on scrapes.
	if p50 := metrics.BucketQuantile(0.5, buckets); !(p50 >= 0 && p50 <= 10) {
		t.Fatalf("p50 estimate %g out of range", p50)
	}
}

// TestMetricsMethodNotAllowed: the exposition is GET-only.
func TestMetricsMethodNotAllowed(t *testing.T) {
	_, ts := admissionServer(t, Options{})
	resp, err := ts.Client().Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %s, want 405", resp.Status)
	}
}

// TestAccessLogAndRequestID: with an access logger configured every
// response carries an X-Request-Id and emits one structured log line
// whose fields match the request; without one, no ID header is set.
func TestAccessLogAndRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := admissionServer(t, Options{AccessLog: logger}, "m")

	resp := postJSON(t, ts, "/v1/locate",
		LocateRequest{Network: "m", Resolver: "exact", Points: []PointJSON{{X: 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate: %s", resp.Status)
	}
	id := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	if !regexp.MustCompile(`^[0-9a-f]{8}-\d{6}$`).MatchString(id) {
		t.Fatalf("X-Request-Id %q does not match <hex8>-<seq6>", id)
	}

	type line struct {
		Msg    string `json:"msg"`
		ID     string `json:"id"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Route  string `json:"route"`
		Status int    `json:"status"`
	}
	var got *line
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad log line %s: %v", sc.Bytes(), err)
		}
		if l.ID == id {
			got = &l
			break
		}
	}
	if got == nil {
		t.Fatalf("no log line with id %s in %q", id, buf.String())
	}
	if got.Msg != "request" || got.Method != http.MethodPost ||
		got.Path != "/v1/locate" || got.Route != "locate" || got.Status != http.StatusOK {
		t.Fatalf("log line %+v", got)
	}

	// Logging off: no ID header.
	_, plain := admissionServer(t, Options{}, "p")
	resp = postJSON(t, plain, "/v1/locate",
		LocateRequest{Network: "p", Resolver: "exact", Points: []PointJSON{{X: 1}}})
	if h := resp.Header.Get("X-Request-Id"); h != "" {
		t.Fatalf("X-Request-Id %q set without access logging", h)
	}
	resp.Body.Close()
}
