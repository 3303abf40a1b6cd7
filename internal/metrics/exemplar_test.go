package metrics

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestExemplarRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ex_seconds", "help", []float64{0.01, 0.1, 1})

	traceID := [16]byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xa, 0xb}
	h.ObserveEx(0.05, traceID, "demo")

	// Exemplars only exist in the OpenMetrics format: the classic
	// text/plain exposition has no exemplar syntax, so a 0.0.4 scraper
	// must never see one.
	var plain strings.Builder
	if err := reg.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), " # ") {
		t.Fatalf("exemplar leaked into the classic exposition:\n%s", plain.String())
	}

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `# {trace_id="deadbeef000102030405060708090a0b"} 0.05`) {
		t.Fatalf("exposition missing exemplar:\n%s", text)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("OpenMetrics document missing # EOF terminator:\n%s", text)
	}

	samples, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse of own exposition failed: %v", err)
	}
	var found *Exemplar
	for _, s := range samples {
		if s.Name == "ex_seconds_bucket" && s.Label("le") == "0.1" {
			found = s.Exemplar
		}
	}
	if found == nil {
		t.Fatalf("no exemplar parsed from:\n%s", text)
	}
	if got := found.Labels["trace_id"]; got != "deadbeef000102030405060708090a0b" {
		t.Fatalf("exemplar trace_id = %q", got)
	}
	if found.Value != 0.05 {
		t.Fatalf("exemplar value = %g, want 0.05", found.Value)
	}

	// Replacement: a later sample in the same bucket wins.
	h.ObserveEx(0.07, [16]byte{0xff}, "demo")
	sb.Reset()
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="ff000000000000000000000000000000"} 0.07`) {
		t.Fatalf("exemplar not replaced:\n%s", sb.String())
	}

	// Dropping the owner removes the exemplar but not the counts.
	h.DropExemplars("demo")
	sb.Reset()
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatalf("exemplar survived DropExemplars:\n%s", sb.String())
	}
	if h.Count() != 2 {
		t.Fatalf("DropExemplars changed counts: %d", h.Count())
	}
}

func TestPlainObserveEmitsNoExemplar(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("plain_seconds", "help", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), " # ") {
		t.Fatalf("plain Observe leaked an exemplar:\n%s", sb.String())
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("nego_requests_total", "help").Inc()
	reg.Histogram("nego_seconds", "help", []float64{1}).ObserveEx(0.5, [16]byte{0xab}, "n")

	get := func(accept string) (string, string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, req)
		return rec.Header().Get("Content-Type"), rec.Body.String()
	}

	// Default (and explicit text/plain) scrape: classic format, no
	// exemplars, no # EOF — a stock 0.0.4 parser must never choke.
	for _, accept := range []string{"", "text/plain; version=0.0.4", "*/*"} {
		ct, body := get(accept)
		if !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Accept %q: Content-Type = %q", accept, ct)
		}
		if strings.Contains(body, "trace_id") || strings.Contains(body, "# EOF") {
			t.Fatalf("Accept %q leaked OpenMetrics syntax into text/plain:\n%s", accept, body)
		}
		if !strings.Contains(body, "# TYPE nego_requests_total counter") {
			t.Fatalf("classic TYPE line must keep the full name:\n%s", body)
		}
	}

	// The negotiation Prometheus actually sends.
	const promAccept = "application/openmetrics-text;version=1.0.0,application/openmetrics-text;version=0.0.1;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"
	ct, body := get(promAccept)
	if ct != OpenMetricsContentType {
		t.Fatalf("OpenMetrics Content-Type = %q", ct)
	}
	if !strings.Contains(body, `# {trace_id="ab000000000000000000000000000000"} 0.5`) {
		t.Fatalf("negotiated exposition missing exemplar:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("negotiated exposition missing # EOF:\n%s", body)
	}
	// OpenMetrics names the counter family without _total; samples
	// keep the suffix.
	if !strings.Contains(body, "# TYPE nego_requests counter") ||
		!strings.Contains(body, "\nnego_requests_total 1\n") {
		t.Fatalf("OpenMetrics counter naming wrong:\n%s", body)
	}
}

func TestDropExemplarsScopedToOwner(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("scoped_seconds", "help", []float64{0.01, 1})
	h.ObserveEx(0.005, [16]byte{1}, "keep")
	h.ObserveEx(0.5, [16]byte{2}, "drop")
	h.DropExemplars("drop")
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `trace_id="01`) {
		t.Fatalf("exemplar of other owner dropped:\n%s", out)
	}
	if strings.Contains(out, `trace_id="02`) {
		t.Fatalf("owned exemplar survived:\n%s", out)
	}
}

func TestObserveExDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("exalloc_seconds", "help", nil)
	traceID := [16]byte{7}
	avg := testing.AllocsPerRun(1000, func() {
		h.ObserveEx(0.0042, traceID, "net")
	})
	if avg != 0 {
		t.Fatalf("ObserveEx allocates %g allocs/op, want 0", avg)
	}
}

func TestParseExemplarErrors(t *testing.T) {
	bad := []string{
		`m_bucket{le="1"} 3 # trace_id`,           // no brace
		`m_bucket{le="1"} 3 # {trace_id="x"}`,     // missing value
		`m_bucket{le="1"} 3 # {trace_id="x"} huh`, // bad value
		`m_bucket{le="1"} 3 # {trace_id=x} 1`,     // malformed labels
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("Parse(%q) accepted malformed exemplar", line)
		}
	}
}

// Satellite coverage: Parse/Buckets/BucketQuantile edges previously only
// exercised indirectly through sinrload scrapes.
func TestBucketQuantileEdgeCases(t *testing.T) {
	// Registered but never observed: all-zero cumulative counts.
	empty := []Bucket{{LE: 0.1, Count: 0}, {LE: math.Inf(1), Count: 0}}
	if got := BucketQuantile(0.99, empty); !math.IsNaN(got) {
		t.Fatalf("unobserved histogram quantile = %g, want NaN", got)
	}
	// Single finite bucket: everything interpolates inside it.
	single := []Bucket{{LE: 2, Count: 10}}
	if got := BucketQuantile(0.5, single); got != 1 {
		t.Fatalf("single-bucket p50 = %g, want 1", got)
	}
	// +Inf-only histogram: no finite bound to report.
	infOnly := []Bucket{{LE: math.Inf(1), Count: 5}}
	if got := BucketQuantile(0.5, infOnly); !math.IsNaN(got) {
		t.Fatalf("+Inf-only quantile = %g, want NaN", got)
	}
	// Quantile 0 and 1 stay within the histogram's range.
	bs := []Bucket{{LE: 0.1, Count: 50}, {LE: 1, Count: 90}, {LE: math.Inf(1), Count: 100}}
	if got := BucketQuantile(0, bs); got < 0 || got > 0.1 {
		t.Fatalf("p0 = %g, want within first bucket", got)
	}
	if got := BucketQuantile(1, bs); got != 1 {
		t.Fatalf("p100 = %g, want highest finite bound", got)
	}
}

func TestBucketsFromParsedExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("bx_seconds", "help", []float64{0.1, 1})
	h.ObserveEx(0.05, [16]byte{3}, "n")
	h.Observe(0.5)
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	bs := Buckets(samples, "bx_seconds")
	if len(bs) != 3 {
		t.Fatalf("buckets = %d, want 3 (%+v)", len(bs), bs)
	}
	if bs[0].Count != 1 || bs[1].Count != 2 || bs[2].Count != 2 {
		t.Fatalf("cumulative counts wrong with exemplars present: %+v", bs)
	}
}
