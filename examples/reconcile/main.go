// Reconcile: declarative operation through the facade. The other
// examples drive the library imperatively; this one declares the
// desired state as a spec file and lets a Reconciler converge a
// Server to it — the embedded equivalent of `sinrserve -spec-dir`.
// Dropping the file creates the network, editing it reconciles along
// the cheap PATCH path (visible in the outcome counters), and
// removing it deletes the network with full cache eviction. The
// readback is byte-stable: GET /v1/networks/{name} returns exactly
// the canonical bytes the controller applied.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	sinrdiag "repro"
)

//go:embed specs/demo.json
var demoSpec []byte

func main() {
	// The spec directory is the entire desired state: one canonical
	// NetworkSpec per .json file. A real deployment points
	// `sinrserve -spec-dir` at a checked-out config repo; here a temp
	// dir seeded with the committed example spec plays that role.
	dir, err := os.MkdirTemp("", "sinr-reconcile-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	writeSpec(dir, "demo.json", demoSpec)

	srv := sinrdiag.NewServer(sinrdiag.ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Passing the server's metrics registry surfaces the controller's
	// counters on the same /metrics exposition sinrserve exports; a
	// tight interval keeps the walkthrough snappy (the default is 2s).
	rec := sinrdiag.NewReconciler(srv, sinrdiag.ReconcilerOptions{
		Dir:      dir,
		Interval: 25 * time.Millisecond,
		Metrics:  srv.Metrics(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { rec.Run(ctx); close(done) }()

	// 1. Create: the controller lists the directory, sees a name with
	// no live generation and applies the spec. The readback bytes are
	// the canonical serialization of the file we dropped.
	body, version := waitForSpec(ts.URL, "demo", nil)
	fmt.Printf("created  version=%s stats=%s\n", version, summary(rec.Stats()))
	fmt.Printf("readback %s\n", body)
	fmt.Printf("query    near (3,0): %s\n", locate(ts.URL, 3.2, 0))

	// 2. Edit: parse the spec through the facade, append a station,
	// and write the file back atomically (tmp + rename, so the lister
	// never sees a half-written file). Station/power drift reconciles
	// along the dynamic PATCH path — the "patched" outcome — instead
	// of a rebuild.
	spec, err := sinrdiag.ParseNetworkSpec(demoSpec)
	if err != nil {
		log.Fatal(err)
	}
	spec.Stations = append(spec.Stations, sinrdiag.SpecStation{X: 8, Y: -2})
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		log.Fatal(err)
	}
	writeSpec(dir, "demo.json", canonical)
	_, version = waitForSpec(ts.URL, "demo", canonical)
	stats := rec.Stats()
	fmt.Printf("edited   version=%s stats=%s\n", version, summary(stats))
	if stats.Outcomes["patched"] == 0 {
		log.Fatal("expected the edit to reconcile along the PATCH path")
	}
	fmt.Printf("query    near (8,-2): %s\n", locate(ts.URL, 7.8, -2))

	// 3. Remove: only deleting the file deletes the network (a file
	// that stops parsing would keep its last good spec serving). The
	// delete also evicts cached resolvers/schedules and unregisters
	// the per-network gauges.
	if err := os.Remove(filepath.Join(dir, "demo.json")); err != nil {
		log.Fatal(err)
	}
	for {
		resp, err := http.Get(ts.URL + "/v1/networks/demo")
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("removed  stats=%s\n", summary(rec.Stats()))

	cancel()
	<-done
}

// writeSpec writes a spec file the way every producer should: to a
// dot-prefixed temp name the lister skips, then an atomic rename.
func writeSpec(dir, name string, data []byte) {
	tmp := filepath.Join(dir, "."+name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		log.Fatal(err)
	}
}

// waitForSpec polls the byte-stable readback until the network exists
// and, when want is non-nil, until the served bytes equal it —
// convergence observed exactly the way an external client would.
func waitForSpec(base, name string, want []byte) (body []byte, version string) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/networks/" + name)
		if err != nil {
			log.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK &&
			(want == nil || bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(want))) {
			return bytes.TrimSpace(body), resp.Header.Get("Sinr-Network-Version")
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatalf("network %q did not converge in time", name)
	return nil, ""
}

// locate sends one point through POST /v1/locate and reports which
// station (if any) is heard there.
func locate(base string, x, y float64) string {
	reqBody, err := json.Marshal(map[string]any{
		"network": "demo",
		"points":  []map[string]float64{{"x": x, "y": y}},
	})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/locate", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Version uint64 `json:"version"`
		Results []struct {
			Station int `json:"station"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if len(out.Results) != 1 {
		log.Fatalf("want 1 answer, got %d", len(out.Results))
	}
	if s := out.Results[0].Station; s >= 0 {
		return fmt.Sprintf("station %d heard (version %d)", s, out.Version)
	}
	return fmt.Sprintf("no station heard (version %d)", out.Version)
}

// summary renders the Stats fields the walkthrough cares about.
func summary(s sinrdiag.ReconcilerStats) string {
	return fmt.Sprintf("desired=%d adopted=%d created=%d patched=%d deleted=%d",
		s.Desired, s.Adopted,
		s.Outcomes["created"], s.Outcomes["patched"], s.Outcomes["deleted"])
}
