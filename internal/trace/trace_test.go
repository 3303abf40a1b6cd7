package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	src := NewIDSource()
	seq := src.Next()
	id := src.TraceID(seq)
	sp := src.SpanIDFor(seq)

	h := FormatTraceparent(id, sp)
	if len(h) != traceparentLen {
		t.Fatalf("traceparent length = %d, want %d (%q)", len(h), traceparentLen, h)
	}
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent framing wrong: %q", h)
	}
	gotID, gotSp, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", h)
	}
	if gotID != id || gotSp != sp {
		t.Fatalf("round trip: got (%s, %s), want (%s, %s)", gotID, gotSp, id, sp)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := FormatTraceparent(ID{1}, SpanID{2})
	bad := []string{
		"",
		"00-abc",
		valid + "x",                         // version 00 must be exactly 55 chars
		valid + "-extra",                    // ... even with a separator
		"ff" + valid[2:],                    // version ff is reserved invalid
		"0x" + valid[2:],                    // non-hex version
		"01" + valid[2:6] + "x" + valid[7:], // future version, corrupt trace ID
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace ID
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero parent span ID
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("control: valid header %q rejected", valid)
	}
}

// TestParseTraceparentFutureVersions pins the W3C forward-compatibility
// rule: an unknown (non-ff) version parses as version 00, including
// when the header carries additional "-"-separated fields.
func TestParseTraceparentFutureVersions(t *testing.T) {
	wantID, wantSp := ID{1}, SpanID{2}
	base := FormatTraceparent(wantID, wantSp)[2:] // strip "00"
	for _, h := range []string{
		"01" + base,
		"cc" + base,
		"01" + base + "-extra-fields.here",
	} {
		id, sp, ok := ParseTraceparent(h)
		if !ok {
			t.Errorf("ParseTraceparent(%q) rejected a future-version header", h)
			continue
		}
		if id != wantID || sp != wantSp {
			t.Errorf("ParseTraceparent(%q) = (%s, %s), want (%s, %s)", h, id, sp, wantID, wantSp)
		}
	}
	// Future version with trailing garbage not introduced by "-".
	if _, _, ok := ParseTraceparent("01" + base + "x"); ok {
		t.Error("future version with unseparated trailing data accepted")
	}
}

// FuzzParseTraceparent fuzzes the inbound traceparent header parser:
// it never panics, an accepted header carries a nonzero trace ID and
// parent span ID that FormatTraceparent renders into a header parsing
// back to the same pair, and a rejected one returns zero values.
func FuzzParseTraceparent(f *testing.F) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, h := range []string{
		valid,
		strings.ToUpper(valid),
		"ff" + valid[2:],
		"cc" + valid[2:] + "-extra-fields",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, sp, ok := ParseTraceparent(h)
		if !ok {
			if id != (ID{}) || sp != (SpanID{}) {
				t.Fatalf("ParseTraceparent(%q) rejected the header but returned (%s, %s)", h, id, sp)
			}
			return
		}
		if id.IsZero() || sp == (SpanID{}) {
			t.Fatalf("ParseTraceparent(%q) accepted a zero ID: (%s, %s)", h, id, sp)
		}
		out := FormatTraceparent(id, sp)
		id2, sp2, ok := ParseTraceparent(out)
		if !ok || id2 != id || sp2 != sp {
			t.Fatalf("ParseTraceparent(%q) = (%s, %s), but its rendering %q parses to (%s, %s, %v)",
				h, id, sp, out, id2, sp2, ok)
		}
	})
}

func TestIDSourceUnifiesRequestAndTraceIDs(t *testing.T) {
	src := NewIDSource()
	a, b := src.Next(), src.Next()
	if b != a+1 {
		t.Fatalf("sequence not monotonic: %d then %d", a, b)
	}
	id := src.TraceID(a)
	// Bytes 0..7 are the prefix, 8..15 the sequence number — the same
	// (prefix, seq) pair that renders the X-Request-Id.
	wantPrefix := src.Prefix()
	var gotPrefix uint64
	for i := 0; i < 8; i++ {
		gotPrefix = gotPrefix<<8 | uint64(id[i])
	}
	if gotPrefix != wantPrefix {
		t.Fatalf("trace ID prefix = %x, want %x", gotPrefix, wantPrefix)
	}
	var gotSeq uint64
	for i := 8; i < 16; i++ {
		gotSeq = gotSeq<<8 | uint64(id[i])
	}
	if gotSeq != a {
		t.Fatalf("trace ID seq = %d, want %d", gotSeq, a)
	}
	if src.TraceID(a) == src.TraceID(b) {
		t.Fatal("distinct sequence numbers produced identical trace IDs")
	}
	if SpanID(id[0:8]) == src.SpanIDFor(a) {
		t.Fatal("span ID must differ from the trace ID's top half")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Begin(ID{1}, SpanID{}, "locate")
	if i := tr.Start("x"); i != -1 {
		t.Fatalf("nil Start = %d, want -1", i)
	}
	tr.End(0)
	tr.SetName(0, "y")
	tr.SetNetwork("n")
	if d := tr.Finish(200); d != 0 {
		t.Fatalf("nil Finish = %v, want 0", d)
	}
	if tr.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	if sp := tr.SpanAt(0); sp != (Span{}) {
		t.Fatalf("nil SpanAt = %+v, want zero Span", sp)
	}
}

func TestUnbegunTraceRecordsNothing(t *testing.T) {
	var tr Trace
	if i := tr.Start("x"); i != -1 {
		t.Fatalf("unbegun Start = %d, want -1", i)
	}
}

func TestSpanRecordingAndOverflow(t *testing.T) {
	var tr Trace
	tr.Begin(ID{1}, SpanID{2}, "locate")
	tr.SetNetwork("demo")

	outer := tr.Start("resolve.batch")
	inner := tr.Start("resolver.build")
	time.Sleep(time.Millisecond)
	tr.End(inner)
	tr.End(outer)
	tr.SetName(inner, "resolver.hit")

	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	sp := tr.SpanAt(inner)
	if sp.Name != "resolver.hit" {
		t.Fatalf("SetName not applied: %q", sp.Name)
	}
	if sp.End <= sp.Start {
		t.Fatalf("span not closed: start %v end %v", sp.Start, sp.End)
	}
	if got := tr.SpanAt(outer); got.End < sp.End {
		t.Fatalf("outer span ended (%v) before inner (%v)", got.End, sp.End)
	}
	// Out-of-range indices return the zero Span instead of stale data.
	if got := tr.SpanAt(-1); got != (Span{}) {
		t.Fatalf("SpanAt(-1) = %+v", got)
	}
	if got := tr.SpanAt(tr.Len()); got != (Span{}) {
		t.Fatalf("SpanAt(Len()) = %+v", got)
	}

	for i := tr.Len(); i < MaxSpans; i++ {
		if tr.Start("fill") < 0 {
			t.Fatalf("Start rejected below capacity at %d", i)
		}
	}
	if tr.Start("overflow") != -1 {
		t.Fatal("Start above capacity must return -1")
	}
	if tr.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", tr.Dropped)
	}

	total := tr.Finish(200)
	if total <= 0 || tr.Total != total || tr.Status != 200 {
		t.Fatalf("Finish: total %v status %d", tr.Total, tr.Status)
	}

	// Begin must fully reset reused (pooled) storage.
	tr.Begin(ID{9}, SpanID{}, "stream")
	if tr.Len() != 0 || tr.Dropped != 0 || tr.Network != "" || tr.Status != 0 || tr.Total != 0 {
		t.Fatalf("Begin did not reset: %+v", tr)
	}
}

func mkTrace(id byte, route, network string, total time.Duration, status int) *Trace {
	var tr Trace
	tr.Begin(ID{id}, SpanID{}, route)
	tr.SetNetwork(network)
	i := tr.Start("stage")
	tr.End(i)
	tr.Finish(status)
	tr.Total = total // pin a deterministic duration for ordering tests
	return &tr
}

func TestRecorderKeepsSlowestPerRoute(t *testing.T) {
	r := NewRecorder([]string{"locate", "schedule"}, 2, 2)
	rt := r.RouteIndex("locate")
	if rt < 0 {
		t.Fatal("RouteIndex(locate) < 0")
	}
	if r.RouteIndex("nope") != -1 {
		t.Fatal("unknown route must map to -1")
	}

	r.Offer(rt, mkTrace(1, "locate", "a", 10*time.Millisecond, 200))
	r.Offer(rt, mkTrace(2, "locate", "a", 30*time.Millisecond, 200))
	r.Offer(rt, mkTrace(3, "locate", "a", 20*time.Millisecond, 200))
	r.Offer(rt, mkTrace(4, "locate", "a", 5*time.Millisecond, 200)) // too fast, dropped

	got := r.Snapshot("locate", 0)
	if len(got) != 2 {
		t.Fatalf("Snapshot len = %d, want 2: %+v", len(got), got)
	}
	if got[0].DurationMS != 30 || got[1].DurationMS != 20 {
		t.Fatalf("kept wrong traces: %v, %v ms", got[0].DurationMS, got[1].DurationMS)
	}
	if got[0].Route != "locate" || len(got[0].Spans) != 1 || got[0].Spans[0].Name != "stage" {
		t.Fatalf("captured shape wrong: %+v", got[0])
	}

	// min-duration filter.
	if n := len(r.Snapshot("locate", 25*time.Millisecond)); n != 1 {
		t.Fatalf("min filter: got %d, want 1", n)
	}
	// Route filter: nothing offered on schedule.
	if n := len(r.Snapshot("schedule", 0)); n != 0 {
		t.Fatalf("schedule lane not empty: %d", n)
	}
	// Out-of-range and nil offers are safe no-ops.
	r.Offer(-1, mkTrace(9, "locate", "a", time.Second, 200))
	r.Offer(99, mkTrace(9, "locate", "a", time.Second, 200))
	r.Offer(rt, nil)
	var nilRec *Recorder
	nilRec.Offer(0, mkTrace(9, "locate", "a", time.Second, 200))
	if nilRec.Snapshot("", 0) != nil || nilRec.RouteIndex("locate") != -1 {
		t.Fatal("nil recorder must be inert")
	}
}

func TestRecorderKeepsErroredRequests(t *testing.T) {
	r := NewRecorder([]string{"locate"}, 1, 2)
	rt := r.RouteIndex("locate")

	// A fast errored request must survive even when slow traces crowd it
	// out of the slow lane.
	r.Offer(rt, mkTrace(1, "locate", "a", 1*time.Millisecond, 429))
	r.Offer(rt, mkTrace(2, "locate", "a", 50*time.Millisecond, 200))
	r.Offer(rt, mkTrace(3, "locate", "a", 60*time.Millisecond, 200))

	got := r.Snapshot("", 0)
	var sawErr, sawSlow bool
	for _, c := range got {
		if c.Status == 429 {
			sawErr = true
		}
		if c.DurationMS == 60 {
			sawSlow = true
		}
	}
	if !sawErr || !sawSlow {
		t.Fatalf("want errored and slowest kept, got %+v", got)
	}

	// A trace in both lanes (slow and errored) appears once.
	r2 := NewRecorder([]string{"locate"}, 2, 2)
	tr := mkTrace(7, "locate", "a", 40*time.Millisecond, 500)
	r2.Offer(0, tr)
	if n := len(r2.Snapshot("", 0)); n != 1 {
		t.Fatalf("dual-lane trace deduped to %d entries, want 1", n)
	}
}

func TestRecorderDropNetwork(t *testing.T) {
	r := NewRecorder([]string{"locate", "schedule"}, 2, 2)
	r.Offer(0, mkTrace(1, "locate", "doomed", 10*time.Millisecond, 200))
	r.Offer(0, mkTrace(2, "locate", "doomed", 10*time.Millisecond, 503))
	r.Offer(0, mkTrace(3, "locate", "kept", 20*time.Millisecond, 200))
	r.Offer(1, mkTrace(4, "schedule", "doomed", 5*time.Millisecond, 200))

	r.DropNetwork("doomed")

	got := r.Snapshot("", 0)
	if len(got) != 1 || got[0].Network != "kept" {
		t.Fatalf("DropNetwork left %+v, want only network=kept", got)
	}
	// Dropped slots are reusable.
	r.Offer(0, mkTrace(5, "locate", "next", 15*time.Millisecond, 200))
	if n := len(r.Snapshot("locate", 0)); n != 2 {
		t.Fatalf("slot not reusable after drop: %d captured", n)
	}
	r.DropNetwork("") // no-op, must not panic
}

func TestCaptureOpenSpanExtendsToTotal(t *testing.T) {
	var tr Trace
	tr.Begin(ID{1}, SpanID{}, "stream")
	tr.Start("stream") // never ended
	tr.Finish(200)
	tr.Total = 10 * time.Millisecond
	c := capture(&tr)
	if len(c.Spans) != 1 {
		t.Fatalf("spans = %d", len(c.Spans))
	}
	if c.Spans[0].DurationMS <= 0 || c.Spans[0].DurationMS > c.DurationMS {
		t.Fatalf("open span duration %v vs total %v", c.Spans[0].DurationMS, c.DurationMS)
	}
}
