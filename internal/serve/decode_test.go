package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sameRequest reports whether two decoded requests are equal field by
// field, floats compared bit for bit (so -0 differs from 0). A nil and
// an empty Points array are equal: the handler only reads its length.
func sameRequest(a, b *LocateRequest) bool {
	if a.Network != b.Network || a.Resolver != b.Resolver ||
		!sameFloat(a.Eps, b.Eps) || !sameFloat(a.Radius, b.Radius) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if !sameFloat(a.Points[i].X, b.Points[i].X) || !sameFloat(a.Points[i].Y, b.Points[i].Y) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// dirtyBody is decoded into the scratch before every differential
// check, so stale fields and Points elements are there to leak into a
// decode that forgets to zero them.
var dirtyBody = []byte(`{"network":"dirty","resolver":"udg","eps":0.5,"radius":2,"points":[` +
	strings.Repeat(`{"x":7,"y":9},`, 15) + `{"x":7,"y":9}]}`)

// checkDecodeLocate decodes body through the handler's decoder, on a
// dirty pooled scratch with the body capped at limit, and through
// encoding/json alone (decodeBody into a fresh request, the path the
// PATCH and schedule bodies take). Both must write the same response —
// the same status and error text, or nothing — and, when the body
// decodes, the same request. contentLength -1 sends the body without
// a declared length.
func checkDecodeLocate(t *testing.T, body []byte, limit, contentLength int64) {
	t.Helper()
	newReq := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(body))
		r.ContentLength = contentLength
		return r
	}
	sc := new(locateScratch)
	if err := sc.decodeLocate(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader(dirtyBody)), 1<<20); err != nil {
		t.Fatalf("dirty body: %v", err)
	}
	gotRec := httptest.NewRecorder()
	gotOK := bodyDecoded(gotRec, sc.decodeLocate(gotRec, newReq(), limit))

	var want LocateRequest
	wantRec := httptest.NewRecorder()
	wantOK := decodeBody(wantRec, newReq(), limit, &want)

	if gotOK != wantOK || gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
		t.Fatalf("body %q, cap %d: decoder wrote %d %q, encoding/json %d %q",
			body, limit, gotRec.Code, gotRec.Body, wantRec.Code, wantRec.Body)
	}
	if gotOK && !sameRequest(&sc.req, &want) {
		t.Fatalf("body %q, cap %d: decoded %+v, encoding/json %+v", body, limit, sc.req, want)
	}
}

// FuzzDecodeLocate holds the /v1/locate body decoder to encoding/json:
// on every input, at a cap above the body and at one that cuts it in
// half, it must give the same request, the same error/no-error split
// and the same status and error text. Its corpus is committed under
// testdata/fuzz/FuzzDecodeLocate.
func FuzzDecodeLocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeLocate(t, body, 1<<20, int64(len(body)))
		checkDecodeLocate(t, body, int64(len(body)/2), -1)
	})
}

// FuzzDecodePointLine holds the NDJSON point-line decoder of
// /v1/locate/stream to json.Unmarshal into a fresh point: the same
// point, the same error/no-error split and the same error text. Its
// corpus is committed under testdata/fuzz/FuzzDecodePointLine.
func FuzzDecodePointLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := decodePointLine(line)
		var want PointJSON
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("line %q: decoder error %v, json.Unmarshal %v", line, gotErr, wantErr)
		}
		if gotErr == nil && (!sameFloat(got.X, want.X) || !sameFloat(got.Y, want.Y)) {
			t.Fatalf("line %q: decoded %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

// TestScannerTakesCanonicalBodies pins the fast path's reach: every
// body json.Marshal(LocateRequest) produces, whatever its floats, is
// decoded by the scanner itself — equal to encoding/json — and never
// sent to the fallback.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-300, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e21, 123456789.123}
	randFloat := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
	}
	sc := new(locateScratch)
	for k := 0; k < 500; k++ {
		req := LocateRequest{Network: "net-" + strings.Repeat("a", rng.Intn(4)), Eps: randFloat(), Radius: randFloat()}
		if rng.Intn(2) == 0 {
			req.Resolver = "exact"
		}
		req.Points = make([]PointJSON, rng.Intn(20))
		for i := range req.Points {
			req.Points[i] = PointJSON{X: randFloat(), Y: randFloat()}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !scanLocate(body, &sc.req) {
			t.Fatalf("canonical body %s fell back", body)
		}
		var want LocateRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameRequest(&sc.req, &want) {
			t.Fatalf("body %s: scanned %+v, encoding/json %+v", body, sc.req, want)
		}
		if len(req.Points) == 0 {
			continue
		}
		line, err := json.Marshal(req.Points[0])
		if err != nil {
			t.Fatal(err)
		}
		s := scanner{b: line}
		if p, ok := s.point(); !ok || !s.end() || !sameFloat(p.X, req.Points[0].X) || !sameFloat(p.Y, req.Points[0].Y) {
			t.Fatalf("canonical point line %s fell back or differs: %+v", line, p)
		}
	}
}

// TestOversizedBodyStatus pins the 400/413 split of a /v1/locate body
// over the server's cap, which reading the whole body before decoding
// must not move: a syntax error inside the cap is the client's 400,
// while a body that is still valid JSON when the cap cuts it is a 413.
func TestOversizedBodyStatus(t *testing.T) {
	const limit = 64
	ts := httptest.NewServer(NewServer(Options{MaxBodyBytes: limit}))
	defer ts.Close()
	pad := strings.Repeat(`{"x":1,"y":2},`, 10)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"syntax error inside the cap", `{"network":"a","points":[{"x":+1}` + pad + `]}`, http.StatusBadRequest},
		{"garbage after a document inside the cap", `{"network":"a"} garbage` + strings.Repeat(" ", limit), http.StatusBadRequest},
		{"valid prefix", `{"network":"a","points":[` + pad + `{"x":1}]}`, http.StatusRequestEntityTooLarge},
		{"valid prefix in a string", `{"network":"` + strings.Repeat("a", limit) + `"}`, http.StatusRequestEntityTooLarge},
		{"whitespace past the cap", `{"network":"a"}` + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge},
		{"exactly at the cap", `{"network":"a"}` + strings.Repeat(" ", limit-15), http.StatusNotFound},
	} {
		resp := rawRequest(t, ts, http.MethodPost, "/v1/locate", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (%d bytes): %s, want %d", tc.name, len(tc.body), resp.Status, tc.want)
		}
	}
}
