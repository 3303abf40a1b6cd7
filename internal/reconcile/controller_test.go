package reconcile

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// flakyRegistry wraps a serve.Server and fails ApplySpec a configured
// number of times per network — the transient-failure injection hook
// of the convergence property test.
type flakyRegistry struct {
	inner *serve.Server

	mu       sync.Mutex
	failures map[string]int // remaining injected failures per name
	applies  map[string]int // total ApplySpec attempts per name
}

func newFlakyRegistry(inner *serve.Server) *flakyRegistry {
	return &flakyRegistry{inner: inner, failures: map[string]int{}, applies: map[string]int{}}
}

func (f *flakyRegistry) inject(name string, n int) {
	f.mu.Lock()
	f.failures[name] += n
	f.mu.Unlock()
}

func (f *flakyRegistry) clear(name string) {
	f.mu.Lock()
	delete(f.failures, name)
	f.mu.Unlock()
}

func (f *flakyRegistry) attempts(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applies[name]
}

func (f *flakyRegistry) ApplySpec(spec *serve.NetworkSpec) (serve.SpecResult, error) {
	f.mu.Lock()
	f.applies[spec.Name]++
	if f.failures[spec.Name] > 0 {
		f.failures[spec.Name]--
		f.mu.Unlock()
		return serve.SpecResult{}, errors.New("injected transient failure")
	}
	f.mu.Unlock()
	return f.inner.ApplySpec(spec)
}

func (f *flakyRegistry) DeleteNetwork(name string) bool { return f.inner.DeleteNetwork(name) }

func (f *flakyRegistry) SpecHashOf(name string) (string, bool) { return f.inner.SpecHashOf(name) }

// fastOptions returns controller options tuned for tests: tight
// pacing, plenty of retries.
func fastOptions(dir string) Options {
	return Options{
		Dir:         dir,
		Interval:    3 * time.Millisecond,
		Workers:     3,
		MaxRetries:  1000,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
}

// startController runs c until the test ends, waiting for a clean
// drain on cleanup.
func startController(t *testing.T, c *Controller) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("controller did not drain after cancel")
		}
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// writeSpecFile lands content at dir/base atomically (write to a
// dotfile the lister skips, then rename), the way real producers
// should.
func writeSpecFile(t *testing.T, dir, base, content string) {
	t.Helper()
	tmp := filepath.Join(dir, "."+base+".tmp")
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, base)); err != nil {
		t.Fatal(err)
	}
}

func specJSON(t *testing.T, sp *serve.NetworkSpec) string {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func hashOf(t *testing.T, sp *serve.NetworkSpec) string {
	t.Helper()
	canonical, err := cloneSpec(sp).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return serve.SpecHash(canonical)
}

func randomSpec(rng *rand.Rand, name string) *serve.NetworkSpec {
	stations := make([]serve.SpecStation, 1+rng.Intn(6))
	for i := range stations {
		stations[i] = serve.SpecStation{
			X: float64(rng.Intn(200)) / 10,
			Y: float64(rng.Intn(200)) / 10,
		}
		if rng.Intn(3) == 0 {
			stations[i].Power = 1 + float64(rng.Intn(4))
		}
	}
	return &serve.NetworkSpec{
		Name:     name,
		Stations: stations,
		Noise:    0.1,
		Beta:     1 + float64(rng.Intn(3)),
		Resolver: "exact",
	}
}

func TestControllerCreatesAndDeletes(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	c := New(srv, fastOptions(dir))
	startController(t, c)

	sp := &serve.NetworkSpec{
		Name:     "basic",
		Stations: []serve.SpecStation{{X: 0, Y: 0}, {X: 3, Y: 4, Power: 2}},
		Noise:    0.2, Beta: 1.5, Resolver: "exact",
	}
	writeSpecFile(t, dir, "basic.json", specJSON(t, sp))
	want := hashOf(t, sp)
	// The registry publishes a change before the controller counts its
	// outcome, so each wait covers both.
	waitFor(t, "creation", func() bool {
		h, ok := srv.SpecHashOf("basic")
		return ok && h == want && c.Stats().Outcomes["created"] > 0
	})
	if got := c.Stats().Outcomes["created"]; got != 1 {
		t.Fatalf("created outcomes = %d, want 1", got)
	}

	// An edit that only moves a station should converge via the PATCH
	// path, not a rebuild.
	sp.Stations = append(sp.Stations, serve.SpecStation{X: 7, Y: 1})
	writeSpecFile(t, dir, "basic.json", specJSON(t, sp))
	want = hashOf(t, sp)
	waitFor(t, "patch convergence", func() bool {
		h, ok := srv.SpecHashOf("basic")
		return ok && h == want && c.Stats().Outcomes["patched"] > 0
	})
	if got := c.Stats().Outcomes["patched"]; got != 1 {
		t.Fatalf("patched outcomes = %d, want 1", got)
	}

	if err := os.Remove(filepath.Join(dir, "basic.json")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deletion", func() bool {
		_, ok := srv.SpecHashOf("basic")
		return !ok && c.Stats().Outcomes["deleted"] > 0
	})
	if got := c.Stats().Outcomes["deleted"]; got != 1 {
		t.Fatalf("deleted outcomes = %d, want 1", got)
	}
}

// TestControllerLeavesImperativeNetworksAlone: networks created
// through the API (never by the controller) are not its to delete.
func TestControllerLeavesImperativeNetworksAlone(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	manual := &serve.NetworkSpec{
		Name: "manual", Stations: []serve.SpecStation{{X: 1, Y: 1}}, Noise: 0.1, Beta: 1,
	}
	if _, err := srv.ApplySpec(manual); err != nil {
		t.Fatal(err)
	}
	c := New(srv, fastOptions(dir))
	startController(t, c)
	waitFor(t, "a few sync passes", func() bool { return c.Stats().Outcomes["deleted"] == 0 && syncedAtLeast(c, 3) })
	if _, ok := srv.SpecHashOf("manual"); !ok {
		t.Fatal("controller deleted an imperatively-created network")
	}
}

func syncedAtLeast(c *Controller, n uint64) bool { return c.syncs.Value() >= n }

// TestParseErrorKeepsLastGood: a spec file that stops parsing keeps
// its network alive on the last good spec; only removing the file
// deletes it.
func TestParseErrorKeepsLastGood(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	c := New(srv, fastOptions(dir))
	startController(t, c)

	sp := &serve.NetworkSpec{
		Name: "keep", Stations: []serve.SpecStation{{X: 0, Y: 0}}, Noise: 0.1, Beta: 1,
	}
	writeSpecFile(t, dir, "keep.json", specJSON(t, sp))
	want := hashOf(t, sp)
	waitFor(t, "creation", func() bool {
		h, ok := srv.SpecHashOf("keep")
		return ok && h == want
	})

	base := c.syncs.Value()
	writeSpecFile(t, dir, "keep.json", `{"name": "keep", "stations": [`)
	waitFor(t, "syncs over the broken file", func() bool { return syncedAtLeast(c, base+3) })
	if h, ok := srv.SpecHashOf("keep"); !ok || h != want {
		t.Fatalf("network drifted on a parse error: ok=%v hash=%q", ok, h)
	}
	if c.specErrs.Value() == 0 {
		t.Fatal("spec error was not counted")
	}
	if st := c.Stats(); st.Desired != 1 {
		t.Fatalf("Desired = %d with a broken-but-remembered spec, want 1", st.Desired)
	}

	if err := os.Remove(filepath.Join(dir, "keep.json")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deletion after file removal", func() bool {
		_, ok := srv.SpecHashOf("keep")
		return !ok
	})
}

// TestYAMLSpecIsASpecError: specs are JSON only. A valid YAML document
// in a .yaml file is listed, counted as a spec error, and creates no
// network.
func TestYAMLSpecIsASpecError(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	c := New(srv, fastOptions(dir))
	startController(t, c)

	writeSpecFile(t, dir, "net.yaml", "name: net\nnoise: 0.1\nbeta: 1\nstations:\n  - x: 0\n    y: 0\n")
	waitFor(t, "syncs over the YAML file", func() bool { return syncedAtLeast(c, 3) })
	if c.specErrs.Value() == 0 {
		t.Fatal("YAML spec was not counted as a spec error")
	}
	if _, ok := srv.SpecHashOf("net"); ok {
		t.Fatal("YAML spec created a network")
	}
	if st := c.Stats(); st.Desired != 0 {
		t.Fatalf("Desired = %d, want 0", st.Desired)
	}
}

// TestDuplicateNameFirstPathWins: two files declaring the same
// network name resolve to the lexicographically-first path.
func TestDuplicateNameFirstPathWins(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	c := New(srv, fastOptions(dir))

	first := &serve.NetworkSpec{
		Name: "dup", Stations: []serve.SpecStation{{X: 1, Y: 0}}, Noise: 0.1, Beta: 1,
	}
	second := &serve.NetworkSpec{
		Name: "dup", Stations: []serve.SpecStation{{X: 9, Y: 9}}, Noise: 0.1, Beta: 2,
	}
	// Both files exist before the first listing: a controller started
	// earlier can list between the two writes and apply the first file
	// before it has seen the duplicate.
	writeSpecFile(t, dir, "a.json", specJSON(t, first))
	writeSpecFile(t, dir, "b.json", specJSON(t, second))
	startController(t, c)
	wantFirst := hashOf(t, first)
	waitFor(t, "first path winning", func() bool {
		h, ok := srv.SpecHashOf("dup")
		return ok && h == wantFirst
	})
	if c.specErrs.Value() == 0 {
		t.Fatal("duplicate name was not counted as a spec error")
	}

	// Removing the winner promotes the survivor.
	if err := os.Remove(filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
	wantSecond := hashOf(t, second)
	waitFor(t, "survivor promotion", func() bool {
		h, ok := srv.SpecHashOf("dup")
		return ok && h == wantSecond
	})
}

// TestTerminalFailureParksUntilSpecChanges: MaxRetries consecutive
// failures park the name (exactly MaxRetries attempts, no more), and
// only a content change un-parks it.
func TestTerminalFailureParksUntilSpecChanges(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	flaky := newFlakyRegistry(srv)
	flaky.inject("stuck", 1<<20)
	opt := fastOptions(dir)
	opt.Workers = 1
	opt.MaxRetries = 3
	c := New(flaky, opt)
	startController(t, c)

	sp := &serve.NetworkSpec{
		Name: "stuck", Stations: []serve.SpecStation{{X: 0, Y: 0}}, Noise: 0.1, Beta: 1,
	}
	writeSpecFile(t, dir, "stuck.json", specJSON(t, sp))
	waitFor(t, "terminal parking", func() bool { return c.Stats().Terminal == 1 })

	st := c.Stats()
	if st.Outcomes["terminal"] != 1 || st.Outcomes["error"] != 2 {
		t.Fatalf("outcomes after parking: terminal=%d error=%d, want 1/2",
			st.Outcomes["terminal"], st.Outcomes["error"])
	}
	if got := c.retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	// Parked means parked: syncs keep running but no further attempts,
	// even though the registry would now succeed.
	flaky.clear("stuck")
	base := c.syncs.Value()
	waitFor(t, "post-park syncs", func() bool { return syncedAtLeast(c, base+5) })
	if got := flaky.attempts("stuck"); got != 3 {
		t.Fatalf("ApplySpec attempts while parked = %d, want 3", got)
	}
	if _, ok := srv.SpecHashOf("stuck"); ok {
		t.Fatal("parked network appeared in the registry")
	}

	// Editing the spec content un-parks and converges.
	sp.Stations = append(sp.Stations, serve.SpecStation{X: 2, Y: 2})
	writeSpecFile(t, dir, "stuck.json", specJSON(t, sp))
	want := hashOf(t, sp)
	waitFor(t, "un-park convergence", func() bool {
		h, ok := srv.SpecHashOf("stuck")
		return ok && h == want
	})
	if st := c.Stats(); st.Terminal != 0 {
		t.Fatalf("Terminal = %d after spec change, want 0", st.Terminal)
	}
}

// TestDriftGaugeLifecycle: the per-network drift gauge reads 0 once
// converged and disappears from the scrape when the network goes.
func TestDriftGaugeLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	opt := fastOptions(dir)
	opt.Metrics = metrics.NewRegistry()
	c := New(srv, opt)
	startController(t, c)

	sp := &serve.NetworkSpec{
		Name: "gauged", Stations: []serve.SpecStation{{X: 0, Y: 0}}, Noise: 0.1, Beta: 1,
	}
	writeSpecFile(t, dir, "gauged.json", specJSON(t, sp))
	want := hashOf(t, sp)
	waitFor(t, "creation", func() bool {
		h, ok := srv.SpecHashOf("gauged")
		return ok && h == want
	})
	scrape := func() string {
		var b bytes.Buffer
		if err := opt.Metrics.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	waitFor(t, "drift gauge at zero", func() bool {
		return strings.Contains(scrape(), `sinr_network_drift{network="gauged"} 0`)
	})

	if err := os.Remove(filepath.Join(dir, "gauged.json")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drift gauge removal", func() bool {
		return !strings.Contains(scrape(), `sinr_network_drift{network="gauged"}`)
	})
}

// TestConvergenceProperty is the pinned property: any interleaving of
// spec writes, edits and removals — with transient registry failures
// injected mid-reconcile — ends with the registry in exactly the
// state a from-scratch build of the final specs produces: same
// networks, byte-identical spec readbacks, identical query answers.
func TestConvergenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runConvergenceTrial(t, seed)
		})
	}
}

func runConvergenceTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{})
	flaky := newFlakyRegistry(srv)
	c := New(flaky, fastOptions(dir))
	startController(t, c)

	names := []string{"alpha", "bravo", "charlie", "delta"}
	desired := map[string]*serve.NetworkSpec{}
	for op := 0; op < 40; op++ {
		name := names[rng.Intn(len(names))]
		if rng.Intn(3) == 0 {
			flaky.inject(name, 1+rng.Intn(3))
		}
		if desired[name] != nil && rng.Intn(4) == 0 {
			delete(desired, name)
			for _, file := range []string{name + ".json", name + "-alt.json"} {
				if err := os.Remove(filepath.Join(dir, file)); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			}
		} else {
			sp := randomSpec(rng, name)
			desired[name] = sp
			// Alternate between two files for the name; drop the other
			// file first so the name never appears twice.
			file, other := name+".json", name+"-alt.json"
			if rng.Intn(2) != 0 {
				file, other = other, file
			}
			if err := os.Remove(filepath.Join(dir, other)); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			writeSpecFile(t, dir, file, specJSON(t, sp))
		}
		if rng.Intn(2) == 0 {
			time.Sleep(time.Duration(rng.Intn(6)) * time.Millisecond)
		}
	}

	// Converge: every desired network live at its spec hash, every
	// removed one gone.
	wantHash := map[string]string{}
	for name, sp := range desired {
		wantHash[name] = hashOf(t, sp)
	}
	waitFor(t, "full convergence", func() bool {
		for _, name := range names {
			h, ok := srv.SpecHashOf(name)
			want, isDesired := wantHash[name]
			if isDesired != ok || (ok && h != want) {
				return false
			}
		}
		return true
	})

	// Reference: a fresh server built from scratch with the final
	// specs only.
	fresh := serve.NewServer(serve.Options{})
	for _, sp := range desired {
		if _, err := fresh.ApplySpec(cloneSpec(sp)); err != nil {
			t.Fatalf("fresh ApplySpec: %v", err)
		}
	}
	for name := range desired {
		got, _, ok := srv.NetworkSpecJSON(name)
		if !ok {
			t.Fatalf("converged server lost %q", name)
		}
		want, _, ok := fresh.NetworkSpecJSON(name)
		if !ok {
			t.Fatalf("fresh server missing %q", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("spec readback for %q differs from from-scratch build:\n got %s\nwant %s", name, got, want)
		}
	}

	// And the two servers answer queries identically.
	tsConverged := httptest.NewServer(srv)
	defer tsConverged.Close()
	tsFresh := httptest.NewServer(fresh)
	defer tsFresh.Close()
	var points []serve.PointJSON
	for x := 0.0; x <= 20; x += 4 {
		for y := 0.0; y <= 20; y += 4 {
			points = append(points, serve.PointJSON{X: x, Y: y})
		}
	}
	for name := range desired {
		a := locateResults(t, tsConverged.URL, name, points)
		b := locateResults(t, tsFresh.URL, name, points)
		if !sameResults(a, b) {
			t.Fatalf("locate answers for %q diverge:\n converged %v\n fresh %v", name, a, b)
		}
	}
}

func sameResults(a, b []serve.LocateResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func locateResults(t *testing.T, base, network string, points []serve.PointJSON) []serve.LocateResult {
	t.Helper()
	body, err := json.Marshal(serve.LocateRequest{Network: network, Resolver: "exact", Points: points})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/locate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate %q: status %d", network, resp.StatusCode)
	}
	var lr serve.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr.Results
}
