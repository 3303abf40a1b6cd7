package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// testCfg returns a small, fast load-run config against addr.
func testCfg(addr, name string) config {
	return config{
		addr: addr, name: name,
		n: 8, queries: 2048, batch: 128, concurrency: 4,
		workload: "uniform", resolver: "locator", eps: 0.1,
		noise: 0.01, beta: 3, seed: 1,
		churnKind: "mix",
	}
}

// corruptingServer wraps a real serve.Server but tampers with one
// /v1/locate answer per batch, simulating a serving-side correctness
// bug that only -verify can catch (the HTTP exchange itself succeeds).
func corruptingServer(srv *serve.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/locate" {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		var resp serve.LocateResponse
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil && len(resp.Results) > 0 {
			resp.Results[0].Station = 7777 // no such station
			body, _ := json.Marshal(resp)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			return
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// TestVerifyMismatchFailsRun is the exit-code regression test: when
// served answers differ from the local reference, run must return an
// error (which main turns into a non-zero exit), not report and
// succeed.
func TestVerifyMismatchFailsRun(t *testing.T) {
	ts := httptest.NewServer(corruptingServer(serve.NewServer(serve.Options{Workers: 2})))
	defer ts.Close()

	cfg := testCfg(ts.URL, "tampered")
	cfg.verify = true
	err := run(cfg)
	if err == nil {
		t.Fatal("run succeeded against a server returning corrupted answers")
	}
	if !strings.Contains(err.Error(), "differ") {
		t.Fatalf("error %q does not report the mismatch", err)
	}
	// The locator's answers are checked against the scan oracle, not
	// against a local locator, and the error must say so.
	if !strings.Contains(err.Error(), "scan oracle") {
		t.Fatalf("error %q does not name the scan oracle it checked against", err)
	}

	// Without -verify the corruption goes unnoticed — that asymmetry is
	// exactly why the flag must drive the exit code.
	cfg.verify = false
	if err := run(cfg); err != nil {
		t.Fatalf("unverified run failed: %v", err)
	}
}

// TestCleanRunVerifies: an untampered server passes verification for a
// static run.
func TestCleanRunVerifies(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Options{Workers: 2}))
	defer ts.Close()

	cfg := testCfg(ts.URL, "clean")
	cfg.verify = true
	if err := run(cfg); err != nil {
		t.Fatalf("verified run failed: %v", err)
	}
}

// TestChurnRunVerifiesAcrossGenerations drives the full churn loop end
// to end: PATCH deltas land under concurrent batch traffic, the local
// mirror tracks every server generation, and epoch-aware verification
// passes — for the dynamic backend (mixed churn incl. power walks,
// which make the network non-uniform) and for the locator backend
// (arrival/departure churn, which keeps it uniform).
func TestChurnRunVerifiesAcrossGenerations(t *testing.T) {
	cases := []struct {
		resolver, churnKind string
	}{
		{"dynamic", "mix"},
		{"exact", "mix"},
		{"locator", "arrive"},
		{"locator", "depart"},
	}
	for _, tc := range cases {
		t.Run(tc.resolver+"/"+tc.churnKind, func(t *testing.T) {
			ts := httptest.NewServer(serve.NewServer(serve.Options{Workers: 2}))
			defer ts.Close()

			cfg := testCfg(ts.URL, "churn-"+tc.resolver+tc.churnKind)
			cfg.resolver = tc.resolver
			cfg.churnKind = tc.churnKind
			cfg.churnEvery = 2
			cfg.verify = true
			if err := run(cfg); err != nil {
				t.Fatalf("churn run failed: %v", err)
			}
		})
	}
}

// TestChurnRunOnPreexistingName pins the version-offset case: against
// a long-running server that already knows the network name, the
// registration returns a version > 1 while the local mirror restarts
// at epoch 1. Churn verification must key generations by the server's
// version (asserting lockstep epochs, not version == epoch), so a
// second run against the same name still verifies cleanly.
func TestChurnRunOnPreexistingName(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Options{Workers: 2}))
	defer ts.Close()

	cfg := testCfg(ts.URL, "reused")
	cfg.resolver = "dynamic"
	cfg.churnEvery = 2
	cfg.verify = true
	for run_ := 1; run_ <= 2; run_++ {
		if err := run(cfg); err != nil {
			t.Fatalf("churn run %d on the same name failed: %v", run_, err)
		}
	}
}

// TestChurnSwapMutuallyExclusive: the two mid-run mutation modes
// cannot be combined (a swap would invalidate the delta history).
func TestChurnSwapMutuallyExclusive(t *testing.T) {
	cfg := testCfg("http://127.0.0.1:1", "x")
	cfg.swapEvery = 2
	cfg.churnEvery = 2
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("combined swap+churn run: %v", err)
	}
}

// sheddingServer wraps a real serve.Server but answers every odd
// /v1/locate request with a bare 429, simulating an overloaded server
// from the client's point of view.
func sheddingServer(srv *serve.Server) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/locate" && n.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		srv.ServeHTTP(w, r)
	})
}

// TestShedResponsesFailRun is the non-2xx regression test: a server
// shedding 429s must fail the run with a hard error naming the class —
// and with -verify on, the shed batches are excluded from verification
// instead of being checked as zero-filled answers (which would report
// thousands of fabricated mismatches, drowning the real signal).
func TestShedResponsesFailRun(t *testing.T) {
	ts := httptest.NewServer(sheddingServer(serve.NewServer(serve.Options{Workers: 2})))
	defer ts.Close()

	cfg := testCfg(ts.URL, "shed")
	cfg.verify = true
	err := run(cfg)
	if err == nil {
		t.Fatal("run succeeded against a shedding server")
	}
	if !strings.Contains(err.Error(), "failed hard") || !strings.Contains(err.Error(), "429=8") {
		t.Fatalf("error %q does not report the 429 class (want 8 of 16 batches shed)", err)
	}
	if strings.Contains(err.Error(), "differ") {
		t.Fatalf("error %q reports mismatches for batches that never answered", err)
	}
}

// TestScrapeMetricsRun: against a real server the before/after scrape
// and the mid-run sampler ride along without disturbing a verified run.
func TestScrapeMetricsRun(t *testing.T) {
	ts := httptest.NewServer(serve.NewServer(serve.Options{Workers: 2, MaxConcurrent: 2}))
	defer ts.Close()

	cfg := testCfg(ts.URL, "scraped")
	cfg.verify = true
	cfg.scrapeMetrics = true
	cfg.metricsEvery = time.Millisecond
	if err := run(cfg); err != nil {
		t.Fatalf("scraping run failed: %v", err)
	}
}

// TestScrapeMetricsUnavailable: a server without an exposition (the
// first scrape 404s) downgrades the run to client-only reporting
// instead of failing it.
func TestScrapeMetricsUnavailable(t *testing.T) {
	inner := serve.NewServer(serve.Options{Workers: 2})
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := testCfg(ts.URL, "nometrics")
	cfg.scrapeMetrics = true
	if err := run(cfg); err != nil {
		t.Fatalf("run failed without a metrics endpoint: %v", err)
	}
}

// scheduleTamperingServer wraps a real serve.Server but rewrites every
// schedule answer with tamper, simulating a scheduling bug that only
// the client's schedule check can catch.
func scheduleTamperingServer(srv *serve.Server, tamper func(*serve.ScheduleResponse)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/schedule") {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		var resp serve.ScheduleResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		tamper(&resp)
		body, _ := json.Marshal(resp)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

// TestTamperedScheduleFailsRun: a served schedule with a link moved
// into a slot it does not fit, or with a link dropped, must fail the
// run with an error naming the slot or the link.
func TestTamperedScheduleFailsRun(t *testing.T) {
	cases := []struct {
		name string
		// tamper corrupts a served schedule of at least two slots and
		// returns what the run's error must say.
		tamper func(*serve.ScheduleResponse) string
	}{
		{"moved", func(s *serve.ScheduleResponse) string {
			// Greedy first-fit put the last slot's first link there
			// because no earlier slot could take it, so slot 0 cannot.
			last := len(s.Slots) - 1
			s.Slots[0] = append(s.Slots[0], s.Slots[last][0])
			s.Slots[last] = s.Slots[last][1:]
			return "slot 0 infeasible"
		}},
		{"dropped", func(s *serve.ScheduleResponse) string {
			li := s.Slots[1][0]
			s.Slots[1] = s.Slots[1][1:]
			return fmt.Sprintf("link %d missing", li)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want atomic.Value
			ts := httptest.NewServer(scheduleTamperingServer(serve.NewServer(serve.Options{Workers: 2}),
				func(s *serve.ScheduleResponse) {
					if len(s.Slots) < 2 {
						t.Errorf("the served schedule has %d slots; the test needs two", len(s.Slots))
						return
					}
					want.Store(tc.tamper(s))
				}))
			defer ts.Close()

			cfg := testCfg(ts.URL, "tampered-"+tc.name)
			cfg.n = 32
			cfg.sched = "greedy"
			err := run(cfg)
			if err == nil {
				t.Fatal("run succeeded against a server returning a tampered schedule")
			}
			if w, _ := want.Load().(string); w == "" || !strings.Contains(err.Error(), w) {
				t.Fatalf("error %q does not say %q", err, w)
			}
		})
	}
}
