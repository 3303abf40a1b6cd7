package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRunDrainsStreamAndController boots run in controller mode on an
// ephemeral port, waits until a spec file's network converges, holds
// an NDJSON stream open and stops the server: run must return nil
// within the drain budget, with the stream ended and the controller
// goroutine gone.
func TestRunDrainsStreamAndController(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name":"demo","stations":[{"x":0,"y":0},{"x":3,"y":4}],"noise":0.1,"beta":2,"resolver":"exact"}`
	if err := os.WriteFile(filepath.Join(dir, "demo.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		drainTimeout: 5 * time.Second,
		streamDrain:  50 * time.Millisecond,
		specDir:      dir,
		reconcileInt: 20 * time.Millisecond,
		maxRetries:   5,
		opt:          serve.Options{Workers: 1},
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, ln, stop) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	converged := false
	for deadline := time.Now().Add(5 * time.Second); !converged && time.Now().Before(deadline); {
		if resp, err := client.Get(base + "/v1/networks/demo"); err == nil {
			converged = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if !converged {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !converged {
		t.Fatal("the spec file's network never converged")
	}

	// Open a stream and read the answer to its first point; the request
	// body stays open, so only the drain can end the stream.
	body, bodyW := io.Pipe()
	defer bodyW.Close()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/locate/stream?network=demo", body)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	opened := make(chan result, 1)
	go func() {
		resp, err := client.Do(req)
		opened <- result{resp, err}
	}()
	if _, err := io.WriteString(bodyW, `{"x":0.1,"y":0.1}`+"\n"); err != nil {
		t.Fatal(err)
	}
	r := <-opened
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", r.resp.Status)
	}
	lines := bufio.NewReader(r.resp.Body)
	if line, err := lines.ReadString('\n'); err != nil || !strings.Contains(line, `"station":0`) {
		t.Fatalf("first stream answer %q (%v), want station 0", line, err)
	}

	stop <- os.Interrupt
	ended := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, lines)
		close(ended)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(cfg.drainTimeout + time.Second):
		t.Fatalf("run still draining %v after stop", cfg.drainTimeout+time.Second)
	}
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("the stream is still open after run returned")
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "internal/reconcile.(*Controller)") {
		t.Fatalf("a controller goroutine outlived run:\n%s", stacks)
	}
}
