package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

func scheduleURL(name string) string { return "/v1/networks/" + name + "/schedule" }

// localInstance rebuilds the server's scheduling instance client-side
// through the constructor the server builds it with.
func localInstance(t *testing.T, net *core.Network, p sched.Params) *sched.Instance {
	t.Helper()
	inst, err := sched.NewInstance(net, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestScheduleEndToEnd(t *testing.T) {
	stations := testStations(t, 24, 21)
	net, err := core.NewUniform(stations, 0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/networks", registerReq("grid", stations, 0.001, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	resp.Body.Close()

	for _, kind := range []string{"greedy", "lenclass", "repair"} {
		resp := postJSON(t, ts, scheduleURL("grid"), ScheduleRequest{Scheduler: kind})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: %s: %s", kind, resp.Status, body)
		}
		out := decodeJSON[ScheduleResponse](t, resp)
		if out.Scheduler != kind || out.Model != "sinr" || out.Version != 1 {
			t.Fatalf("%s: header = %+v", kind, out)
		}
		if out.Path != "computed" {
			t.Fatalf("%s: first answer path = %q, want computed", kind, out.Path)
		}
		if out.NumLinks != len(stations) || out.NumSlots != len(out.Slots) {
			t.Fatalf("%s: counts = %+v", kind, out)
		}
		// The served slots must validate against a client-side rebuild
		// of the same instance — server and client agree on the links
		// without the links crossing the wire.
		inst := localInstance(t, net, sched.Params{LinkLen: out.LinkLen})
		s := &sched.Schedule{Slots: out.Slots}
		if err := s.Validate(inst.Problem); err != nil {
			t.Fatalf("%s: served schedule invalid locally: %v", kind, err)
		}
		if s.NumLinks() != len(inst.Links) {
			t.Fatalf("%s: %d of %d links scheduled", kind, s.NumLinks(), len(inst.Links))
		}

		// Same request again: served from cache, same slots.
		resp = postJSON(t, ts, scheduleURL("grid"), ScheduleRequest{Scheduler: kind})
		again := decodeJSON[ScheduleResponse](t, resp)
		if again.Path != "cached" {
			t.Fatalf("%s: repeat path = %q, want cached", kind, again.Path)
		}
		if fmt.Sprint(again.Slots) != fmt.Sprint(out.Slots) {
			t.Fatalf("%s: cached slots differ", kind)
		}
	}

	// The protocol model answers too and validates under its own rule.
	resp = postJSON(t, ts, scheduleURL("grid"), ScheduleRequest{Model: "protocol"})
	out := decodeJSON[ScheduleResponse](t, resp)
	if out.Model != "protocol" || out.Path != "computed" {
		t.Fatalf("protocol = %+v", out)
	}
	pp := localInstance(t, net, sched.Params{Model: sched.ModelProtocol, LinkLen: out.LinkLen})
	if err := (&sched.Schedule{Slots: out.Slots}).Validate(pp.Problem); err != nil {
		t.Fatalf("protocol schedule invalid locally: %v", err)
	}
}

// TestSchedulePatchThenRepair is the tentpole serve behavior: a PATCH
// delta bumps the generation, and the next schedule request repairs
// the cached schedule instead of recomputing it.
func TestSchedulePatchThenRepair(t *testing.T) {
	stations := testStations(t, 20, 33)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/networks", registerReq("churn", stations, 0.001, 2)).Body.Close()

	resp := postJSON(t, ts, scheduleURL("churn"), ScheduleRequest{})
	first := decodeJSON[ScheduleResponse](t, resp)
	if first.Path != "computed" || first.Version != 1 {
		t.Fatalf("first = %+v", first)
	}

	// Remove two stations, add one.
	resp = patchJSON(t, ts, "churn", NetworkDeltaRequest{
		Remove: []int{0, 7},
		Add:    []DeltaStationJSON{{X: 4.5, Y: -4.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %s", resp.Status)
	}
	resp.Body.Close()

	resp = postJSON(t, ts, scheduleURL("churn"), ScheduleRequest{})
	second := decodeJSON[ScheduleResponse](t, resp)
	if second.Path != "repaired" {
		t.Fatalf("post-PATCH path = %q, want repaired (%+v)", second.Path, second)
	}
	if second.Version != 2 {
		t.Fatalf("post-PATCH version = %d, want 2", second.Version)
	}
	if second.Repair == nil {
		t.Fatal("repaired answer carries no repair stats")
	}
	// 18 survivors kept or displaced, 1 arrival placed fresh.
	if got := second.Repair.Kept + second.Repair.Displaced; got != 18 {
		t.Errorf("kept+displaced = %d, want 18", got)
	}
	if second.Repair.Placed < 1 {
		t.Errorf("placed = %d, want >= 1 (the arrival)", second.Repair.Placed)
	}
	if second.NumLinks != 19 {
		t.Errorf("num_links = %d, want 19", second.NumLinks)
	}

	// The repaired schedule validates against the new generation's
	// derived links, rebuilt client-side from the server's answers.
	snap := srv.nets["churn"].snap.Load()
	inst := localInstance(t, snap.net, sched.Params{})
	if err := (&sched.Schedule{Slots: second.Slots}).Validate(inst.Problem); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}

	// And a third request is a plain cache hit on the new generation.
	resp = postJSON(t, ts, scheduleURL("churn"), ScheduleRequest{})
	third := decodeJSON[ScheduleResponse](t, resp)
	if third.Path != "cached" || third.Version != 2 {
		t.Fatalf("third = %+v", third)
	}

	if got := srv.m.schedResults[schedPathIdx("repaired")].Value(); got != 1 {
		t.Errorf("cache repairs = %d, want 1", got)
	}
}

func TestScheduleErrors(t *testing.T) {
	stations := testStations(t, 8, 40)
	srv := NewServer(Options{MaxSchedLinks: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("tiny", stations, 0.001, 2)).Body.Close()

	cases := []struct {
		name string
		url  string
		req  ScheduleRequest
		want int
	}{
		{"unknown network", scheduleURL("ghost"), ScheduleRequest{}, http.StatusNotFound},
		{"unknown scheduler", scheduleURL("tiny"), ScheduleRequest{Scheduler: "magic"}, http.StatusBadRequest},
		{"unknown model", scheduleURL("tiny"), ScheduleRequest{Model: "graph"}, http.StatusBadRequest},
		{"unknown order", scheduleURL("tiny"), ScheduleRequest{Order: "random"}, http.StatusBadRequest},
		{"negative link_len", scheduleURL("tiny"), ScheduleRequest{LinkLen: -1}, http.StatusBadRequest},
		{"negative beta", scheduleURL("tiny"), ScheduleRequest{Beta: -2}, http.StatusBadRequest},
		{"inverted radii", scheduleURL("tiny"), ScheduleRequest{Model: "protocol", ConnRadius: 3, InterfRadius: 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts, tc.url, tc.req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// Oversize: register a network above the scheduling cap.
	big := testStations(t, 9, 41)
	postJSON(t, ts, "/v1/networks", registerReq("big", big, 0.001, 2)).Body.Close()
	resp := postJSON(t, ts, scheduleURL("big"), ScheduleRequest{})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize network: status %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestScheduleCapOnBuiltGeneration: the link cap is checked on the
// snapshot the build schedules, so a PATCH that grows the network past
// the cap between admission and build still answers 413.
func TestScheduleCapOnBuiltGeneration(t *testing.T) {
	srv := NewServer(Options{MaxSchedLinks: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("grow", testStations(t, 8, 42), 0.001, 2)).Body.Close()
	if resp := patchJSON(t, ts, "grow", NetworkDeltaRequest{Add: []DeltaStationJSON{{X: 4.5, Y: -4.5}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %s", resp.Status)
	}
	_, err := buildSchedule(schedKey{}, srv.nets["grow"].snap.Load(), nil, srv.opt.MaxSchedLinks)
	if !errors.Is(err, errTooManyLinks) {
		t.Fatalf("build over the cap: %v, want errTooManyLinks", err)
	}
	if got := errorStatus(err); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("errorStatus = %d, want 413", got)
	}
}

// TestScheduleSingleFlight: concurrent identical requests share one
// build.
func TestScheduleSingleFlight(t *testing.T) {
	stations := testStations(t, 32, 50)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("flight", stations, 0.001, 2)).Body.Close()

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts, scheduleURL("flight"), ScheduleRequest{})
			out := decodeJSON[ScheduleResponse](t, resp)
			if out.NumLinks != 32 {
				t.Errorf("num_links = %d", out.NumLinks)
			}
		}()
	}
	wg.Wait()
	if builds := srv.schedules.builds.Load(); builds != 1 {
		t.Errorf("builds = %d, want 1 (single flight)", builds)
	}
}

// TestScheduleMetrics: the endpoint shows up in the exposition with
// per-kind and per-path counters.
func TestScheduleMetrics(t *testing.T) {
	stations := testStations(t, 16, 60)
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("obs", stations, 0.001, 2)).Body.Close()

	postJSON(t, ts, scheduleURL("obs"), ScheduleRequest{Scheduler: "lenclass"}).Body.Close()
	postJSON(t, ts, scheduleURL("obs"), ScheduleRequest{Scheduler: "lenclass"}).Body.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`sinr_schedule_requests_total{scheduler="lenclass"} 2`,
		`sinr_schedule_results_total{path="computed"} 1`,
		`sinr_schedule_results_total{path="cached"} 1`,
		`sinr_http_requests_total{code="2xx",route="schedule"} 2`,
		`sinr_schedule_cache_builds_total 1`,
		`sinr_schedule_cache_hits_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if !strings.Contains(text, `sinr_schedule_seconds_bucket{scheduler="lenclass",le="+Inf"} 2`) &&
		!strings.Contains(text, `sinr_schedule_seconds_bucket{le="+Inf",scheduler="lenclass"} 2`) {
		t.Error("metrics exposition missing schedule latency histogram")
	}
}
