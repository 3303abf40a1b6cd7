package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

func TestSpecNormalize(t *testing.T) {
	// The deprecated parallel Powers array folds into per-station
	// fields, default powers (1) zero out, and a zero schedule policy
	// drops — so every way of writing the same network hashes alike.
	a := &NetworkSpec{
		Name:     "n",
		Stations: []SpecStation{{X: 1}, {X: 2}},
		Noise:    0.1, Beta: 2,
		Powers:   []float64{1, 3},
		Schedule: &SchedulePolicy{},
	}
	b := &NetworkSpec{
		Name:     "n",
		Stations: []SpecStation{{X: 1, Power: 1}, {X: 2, Power: 3}},
		Noise:    0.1, Beta: 2,
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent specs hash differently:\n%s\n%s", ha, hb)
	}
	if a.Powers != nil || a.Schedule != nil || a.Stations[1].Power != 3 || a.Stations[0].Power != 0 {
		t.Fatalf("normalization left %+v", a)
	}

	bad := &NetworkSpec{Name: "n", Stations: []SpecStation{{X: 1}}, Powers: []float64{1, 2}}
	if err := bad.Normalize(); err == nil {
		t.Fatal("powers/stations length mismatch accepted")
	}
	if err := (&NetworkSpec{Stations: []SpecStation{{X: 1}}}).Normalize(); err == nil {
		t.Fatal("missing name accepted")
	}
	if err := (&NetworkSpec{Name: "n", Resolver: "bogus"}).Normalize(); err == nil {
		t.Fatal("unknown resolver accepted")
	}
	if err := (&NetworkSpec{Name: "n", Schedule: &SchedulePolicy{Order: "bogus"}}).Normalize(); err == nil {
		t.Fatal("unknown schedule order accepted")
	}
}

func TestDiffStations(t *testing.T) {
	a := SpecStation{X: 0, Y: 0}
	b := SpecStation{X: 1, Y: 0}
	c := SpecStation{X: 2, Y: 0}
	d := SpecStation{X: 3, Y: 0}

	// Identical lists: an empty delta.
	delta, ok := diffStations([]SpecStation{a, b}, []SpecStation{a, b})
	if !ok || len(delta.SetPower)+len(delta.Remove)+len(delta.Add) != 0 {
		t.Fatalf("identical lists: delta %+v ok=%v", delta, ok)
	}

	// Power drift only: SetPower, no membership change.
	b2 := b
	b2.Power = 5
	delta, ok = diffStations([]SpecStation{a, b}, []SpecStation{a, b2})
	if !ok || len(delta.Remove) != 0 || len(delta.Add) != 0 || len(delta.SetPower) != 1 {
		t.Fatalf("power drift: delta %+v ok=%v", delta, ok)
	}
	if delta.SetPower[0].Station != 1 || delta.SetPower[0].Power != 5 {
		t.Fatalf("power drift targeted %+v", delta.SetPower[0])
	}

	// Remove middle, append new: survivors keep order, tail appends.
	delta, ok = diffStations([]SpecStation{a, b, c}, []SpecStation{a, c, d})
	if !ok {
		t.Fatal("remove+append not delta-shaped")
	}
	if len(delta.Remove) != 1 || delta.Remove[0] != 1 {
		t.Fatalf("remove = %v, want [1]", delta.Remove)
	}
	if len(delta.Add) != 1 || delta.Add[0].Pos != geom.Pt(3, 0) {
		t.Fatalf("add = %+v", delta.Add)
	}

	// A reorder is still delta-shaped when the displaced stations can
	// ride as trailing additions: keep c, remove a and b, re-add a.
	delta, ok = diffStations([]SpecStation{a, b, c}, []SpecStation{c, a})
	if !ok || len(delta.Remove) != 2 || len(delta.Add) != 1 || delta.Add[0].Pos != geom.Pt(0, 0) {
		t.Fatalf("reorder: delta %+v ok=%v", delta, ok)
	}

	// But when nothing survives in place, a rebuild is the answer.
	if _, ok = diffStations([]SpecStation{a, b, c}, []SpecStation{d, a}); ok {
		t.Fatal("no-survivor diff reported delta-shaped")
	}

	// Duplicate positions match in order.
	delta, ok = diffStations([]SpecStation{a, a}, []SpecStation{a, a, a})
	if !ok || len(delta.Remove) != 0 || len(delta.Add) != 1 {
		t.Fatalf("duplicate positions: delta %+v ok=%v", delta, ok)
	}
}

func getSpec(t *testing.T, ts *httptest.Server, name string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/networks/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSpecReadbackRoundTrip(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := NetworkSpec{
		Name:     "rt",
		Stations: []SpecStation{{X: 0, Y: 0}, {X: 1, Y: 1, Power: 2}},
		Noise:    0.05, Beta: 2, Resolver: "exact",
		Schedule: &SchedulePolicy{Order: "id"},
	}
	want, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts, "/v1/networks", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	resp.Body.Close()

	got, body := getSpec(t, ts, "rt")
	if got.StatusCode != http.StatusOK {
		t.Fatalf("readback: %s", got.Status)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("readback not byte-stable:\n got %s\nwant %s", body, want)
	}
	if v := got.Header.Get("Sinr-Network-Version"); v != "1" {
		t.Fatalf("version header = %q", v)
	}
	if h := got.Header.Get("Sinr-Spec-Hash"); h != SpecHash(want) {
		t.Fatalf("hash header = %q, want %q", h, SpecHash(want))
	}

	// The deprecated wire shape (parallel powers array) reads back in
	// canonical form — same bytes as the per-station equivalent.
	legacy := `{"name":"rt2","stations":[{"x":0,"y":0},{"x":1,"y":1}],"noise":0.05,"beta":2,"powers":[1,2]}`
	resp, err = ts.Client().Post(ts.URL+"/v1/networks", "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canonical := NetworkSpec{
		Name:     "rt2",
		Stations: []SpecStation{{X: 0, Y: 0}, {X: 1, Y: 1, Power: 2}},
		Noise:    0.05, Beta: 2,
	}
	want, err = canonical.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, body = getSpec(t, ts, "rt2"); !bytes.Equal(body, want) {
		t.Fatalf("legacy shape readback:\n got %s\nwant %s", body, want)
	}

	// Unknown name: 404.
	if resp, _ := getSpec(t, ts, "nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown network readback: %s", resp.Status)
	}
}

// TestRegisterRejectsUnknownSpecKey pins POST /v1/networks to the
// spec-file decoder: a typoed key is a 400 that registers nothing,
// not a network that silently ignores the field (here, one served by
// the default locator instead of the exact backend it asked for).
func TestRegisterRejectsUnknownSpecKey(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{Workers: 1}))
	defer ts.Close()
	body := `{"name":"typo","stations":[{"x":0,"y":0},{"x":3,"y":4}],"noise":0.1,"beta":2,"resolvr":"exact"}`
	resp := rawRequest(t, ts, http.MethodPost, "/v1/networks", body)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "resolvr") {
		t.Fatalf("register with an unknown key: %s %s, want 400 naming the key", resp.Status, msg)
	}
	if resp, _ := getSpec(t, ts, "typo"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected spec was registered: readback %s", resp.Status)
	}
	listed, err := ts.Client().Get(ts.URL + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	if list := decodeJSON[[]NetworkResponse](t, listed); len(list) != 0 {
		t.Fatalf("rejected spec was registered: list %+v", list)
	}
}

func TestApplySpecConvergence(t *testing.T) {
	srv := NewServer(Options{})
	stations := testStations(t, 8, 11)

	spec := &NetworkSpec{Name: "c", Noise: 0.01, Beta: 2}
	for _, p := range stations {
		spec.Stations = append(spec.Stations, SpecStation{X: p.X, Y: p.Y})
	}
	res, err := srv.ApplySpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != SpecCreated || res.Version != 1 {
		t.Fatalf("first apply = %+v", res)
	}

	// Idempotent: the same spec converges to unchanged, same version.
	again := *spec
	res, err = srv.ApplySpec(&again)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != SpecUnchanged || res.Version != 1 {
		t.Fatalf("re-apply = %+v", res)
	}

	// Station drift rides the PATCH path.
	edited := *spec
	edited.Stations = append([]SpecStation(nil), spec.Stations...)
	edited.Stations[2].Power = 4
	edited.Stations = append(edited.Stations, SpecStation{X: 9, Y: 9})
	res, err = srv.ApplySpec(&edited)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != SpecPatched || res.Version != 2 || res.Stations != len(stations)+1 {
		t.Fatalf("edited apply = %+v", res)
	}

	// Metadata-only drift also patches (no engine churn).
	meta := edited
	meta.Resolver = "exact"
	res, err = srv.ApplySpec(&meta)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != SpecPatched || res.Version != 3 || res.Resolver != "exact" {
		t.Fatalf("metadata apply = %+v", res)
	}

	// Physics drift forces a rebuild.
	phys := meta
	phys.Beta = 3
	res, err = srv.ApplySpec(&phys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != SpecReplaced || res.Version != 4 {
		t.Fatalf("physics apply = %+v", res)
	}

	// The converged state equals a from-scratch build of the final
	// spec: identical canonical readback and identical served answers.
	fresh := NewServer(Options{})
	scratch := phys
	if _, err := fresh.ApplySpec(&scratch); err != nil {
		t.Fatal(err)
	}
	gotJSON, _, _ := srv.NetworkSpecJSON("c")
	wantJSON, _, _ := fresh.NetworkSpecJSON("c")
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("converged spec differs from scratch build:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	tsA := httptest.NewServer(srv)
	defer tsA.Close()
	tsB := httptest.NewServer(fresh)
	defer tsB.Close()
	req := LocateRequest{Network: "c", Resolver: "exact"}
	for _, p := range testStations(t, 32, 12) {
		req.Points = append(req.Points, PointJSON{X: p.X, Y: p.Y})
	}
	outA := decodeJSON[LocateResponse](t, postJSON(t, tsA, "/v1/locate", req))
	outB := decodeJSON[LocateResponse](t, postJSON(t, tsB, "/v1/locate", req))
	if len(outA.Results) == 0 || len(outA.Results) != len(outB.Results) {
		t.Fatalf("result lengths %d vs %d", len(outA.Results), len(outB.Results))
	}
	for i := range outA.Results {
		if outA.Results[i] != outB.Results[i] {
			t.Fatalf("answer %d: converged %+v, scratch %+v", i, outA.Results[i], outB.Results[i])
		}
	}
}

// TestDeleteEvictsEverything is the create→delete→scrape regression:
// deleting a network must evict its resolver and schedule cache
// entries and drop its per-network gauges from /metrics — without the
// unregister, gauges for dead networks would dangle forever.
func TestDeleteEvictsEverything(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stations := testStations(t, 8, 21)
	resp := postJSON(t, ts, "/v1/networks", registerReq("doomed", stations, 0.01, 2))
	resp.Body.Close()

	// Populate both caches.
	resp = postJSON(t, ts, "/v1/locate", LocateRequest{
		Network: "doomed", Resolver: "udg", Points: []PointJSON{{X: 0.5, Y: 0.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, ts, "/v1/networks/doomed/schedule", ScheduleRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %s", resp.Status)
	}
	resp.Body.Close()
	if srv.resolvers.Len() == 0 || srv.schedules.Len() == 0 {
		t.Fatalf("caches not populated: resolvers %d, schedules %d", srv.resolvers.Len(), srv.schedules.Len())
	}

	scrape := func() string {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if !strings.Contains(scrape(), `sinr_network_stations{network="doomed"} 8`) {
		t.Fatal("per-network gauge missing before delete")
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/networks/doomed", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ack := decodeJSON[DeleteResponse](t, dresp)
	if !ack.Deleted || ack.Name != "doomed" {
		t.Fatalf("delete ack = %+v", ack)
	}

	if got := scrape(); strings.Contains(got, `network="doomed"`) {
		t.Fatalf("per-network series survived delete:\n%s", got)
	}
	if srv.resolvers.Len() != 0 {
		t.Fatalf("%d resolver cache entries survived delete", srv.resolvers.Len())
	}
	if srv.schedules.Len() != 0 {
		t.Fatalf("%d schedule cache entries survived delete", srv.schedules.Len())
	}

	// The name is gone from every read surface.
	if r, _ := getSpec(t, ts, "doomed"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("spec readback after delete: %s", r.Status)
	}
	resp = postJSON(t, ts, "/v1/locate", LocateRequest{Network: "doomed", Points: []PointJSON{{}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("locate after delete: %s", resp.Status)
	}
	resp.Body.Close()

	// Deleting again is a 404, not a panic.
	dresp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %s", dresp.Status)
	}
	dresp.Body.Close()

	// Re-creating the name re-registers fresh gauges.
	resp = postJSON(t, ts, "/v1/networks", registerReq("doomed", stations[:4], 0.01, 2))
	resp.Body.Close()
	if !strings.Contains(scrape(), `sinr_network_stations{network="doomed"} 4`) {
		t.Fatal("per-network gauge missing after re-create")
	}
}

// TestRecreateDuringBuildServesNewNetwork is the delete/re-create
// regression: a locator build still running when its network is
// deleted and a namesake registered must never answer for the
// namesake. Versions restart at 1 on re-create, so only the network
// incarnation tells the two builds apart.
func TestRecreateDuringBuildServesNewNetwork(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	oldStations, newStations := testStations(t, 24, 91), testStations(t, 24, 92)
	postJSON(t, ts, "/v1/networks", registerReq("reborn", oldStations, 0.01, 3)).Body.Close()

	query := LocateRequest{Network: "reborn", Resolver: "locator", Eps: 0.3}
	for _, p := range newStations {
		query.Points = append(query.Points, PointJSON{X: p.X, Y: p.Y})
	}
	body, err := json.Marshal(query)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %s", resp.Status)
			}
		}
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.LocatorBuilds() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first locator build never started")
		}
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/networks/reborn", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	postJSON(t, ts, "/v1/networks", registerReq("reborn", newStations, 0.01, 3)).Body.Close()

	got := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", query))
	if len(got.Results) != len(newStations) {
		t.Fatalf("%d answers for %d points", len(got.Results), len(newStations))
	}
	net, err := core.NewUniform(newStations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, p := range newStations {
		want := NoStationHeard
		if idx, ok := net.HeardBy(p); ok {
			want = idx
		}
		if got.Results[i].Station != want {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d answers on the re-created network disagree with its HeardBy — served by the deleted network's resolver", wrong, len(newStations))
	}
	if err := <-done; err != nil {
		t.Errorf("in-flight locate on the deleted network: %v", err)
	}
}

// TestPatchKeepsSpecReadbackFresh: an imperative PATCH delta must
// update the stored declarative identity, so a GET readback describes
// the post-delta network and a convergent ApplySpec of that readback
// is a no-op.
func TestPatchKeepsSpecReadbackFresh(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stations := testStations(t, 6, 31)
	resp := postJSON(t, ts, "/v1/networks", registerReq("p", stations, 0.01, 2))
	resp.Body.Close()

	body, _ := json.Marshal(NetworkDeltaRequest{
		Remove: []int{0},
		Add:    []DeltaStationJSON{{X: 7, Y: 7, Power: 3}},
	})
	preq, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/networks/p", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := ts.Client().Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %s", presp.Status)
	}
	presp.Body.Close()

	_, bodyJSON := getSpec(t, ts, "p")
	var got NetworkSpec
	if err := json.Unmarshal(bodyJSON, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Stations) != len(stations) {
		t.Fatalf("readback has %d stations, want %d", len(got.Stations), len(stations))
	}
	last := got.Stations[len(got.Stations)-1]
	if last.X != 7 || last.Y != 7 || last.Power != 3 {
		t.Fatalf("appended station readback = %+v", last)
	}

	// Re-applying the readback converges to unchanged.
	res, err := srv.ApplySpec(&got)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != SpecUnchanged {
		t.Fatalf("re-apply of readback = %+v", res)
	}
}

func TestSchedulePolicyDefaults(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := registerReq("pol", testStations(t, 6, 41), 0.01, 2)
	spec.Schedule = &SchedulePolicy{Order: "id", LinkLen: 2}
	resp := postJSON(t, ts, "/v1/networks", spec)
	resp.Body.Close()

	// An empty request inherits the declared policy...
	out := decodeJSON[ScheduleResponse](t, postJSON(t, ts, "/v1/networks/pol/schedule", ScheduleRequest{}))
	if out.Order != "id" || out.LinkLen != 2 {
		t.Fatalf("policy defaults not applied: %+v", out)
	}
	// ...and explicit knobs still win.
	out = decodeJSON[ScheduleResponse](t, postJSON(t, ts, "/v1/networks/pol/schedule", ScheduleRequest{Order: "short"}))
	if out.Order != "short" || out.LinkLen != 2 {
		t.Fatalf("explicit knob lost to policy: %+v", out)
	}
}
