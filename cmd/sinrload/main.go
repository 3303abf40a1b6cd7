// Command sinrload replays configurable query workloads against a
// running sinrserve instance and reports throughput and latency
// percentiles. It generates a network locally, registers it with the
// server, fires /v1/locate batches from concurrent clients, and can
// verify every served answer byte-identically against a locally built
// reference (the scan oracle, or a local UDG resolver for udg), hot-swap the network mid-run to prove
// replacement drops no traffic, and churn the station set mid-run
// through the PATCH delta API to prove incremental mutation drops no
// traffic either.
//
// Usage:
//
//	sinrload -addr http://127.0.0.1:8080 [-network load] [-n 64]
//	         [-queries 200000] [-batch 512] [-concurrency 8]
//	         [-workload uniform|hotspot|mobility]
//	         [-resolver exact|locator|voronoi|udg|dynamic] [-eps 0.05]
//	         [-radius 0] [-noise 0.01] [-beta 3] [-seed 1]
//	         [-swap-every 0] [-churn-every 0]
//	         [-churn-kind arrive|depart|power|mix] [-verify]
//	         [-sched greedy|lenclass|repair] [-spec-dir DIR]
//
// -resolver selects the serving backend per request, turning every
// workload into a cross-backend comparison scenario; -radius sets the
// UDG connectivity radius (0 derives it from the network, identically
// on client and server). -swap-every K re-registers the network
// (bumping its version and forcing a resolver rebuild + atomic hot
// swap) after every K batches; station locations are unchanged, so
// served answers must stay identical while the swap happens under
// load.
//
// -churn-every K instead PATCHes a station delta (one -churn-kind
// event: an arrival, a departure, a power-walk step, or a mix) after
// every K batches, mirroring each delta in a local dynamic engine so
// the client knows every server generation's exact station set.
// Served batches carry the version that answered them, so -verify
// checks each answer against the right generation even when batches
// race deltas. Note that power churn makes the network non-uniform,
// which the locator backend rejects — pair -churn-kind power/mix with
// the exact, voronoi or dynamic backend.
//
// -sched additionally exercises the schedule endpoint: one POST
// /v1/networks/{name}/schedule with the named scheduler right after
// registration and one after the run. Each answer is validated
// locally — the client re-derives the generation's link set with
// sched.DeriveLinks from its mirrored station set and re-checks every
// slot through its own feasibility engine — and when the run PATCHed
// churn deltas the post-run answer must have been repaired from the
// pre-churn schedule (path "repaired"), proving the cache invalidated
// and healed instead of recomputing. Any invalid slot or wrong path
// is a non-zero exit.
//
// -spec-dir drives a declaratively-operated server (sinrserve
// -spec-dir) instead of POSTing: the generated network lands as a
// canonical spec file in the directory (written atomically, tmp +
// rename), and the client polls GET /v1/networks/{name} until the
// reconcile controller converges the registry to byte-identical spec
// readback before firing traffic. Mutually exclusive with -swap-every
// and -churn-every, which mutate the registry imperatively and would
// race the controller's convergence.
//
// -verify recomputes all answers locally through the scan oracle (the
// exact backend) for every SINR kind, whose served answers are exact
// by construction, and through a local UDG resolver for "udg", and
// exits non-zero on any mismatch, so the command doubles as an end-to-end correctness check
// in CI (the serve-smoke matrix runs it once per backend, plus a
// churn leg).
//
// Any non-2xx locate response is a hard failure: the run reports how
// many batches failed by class (429 shed, 5xx, other) and exits
// non-zero. Failed batches are excluded from verification — they have
// no answers to check — so a shedding server cannot silently pass a
// -verify run.
//
// -scrape-metrics (default true) snapshots the server's /metrics
// before and after the run and reports the server-side view next to
// the client percentiles: request counts by status class, shed count,
// resolver-cache hit/miss deltas, and latency percentiles estimated
// from the histogram delta — the numbers an operator's dashboard
// would show for the same window. -metrics-every additionally samples
// /metrics during the run to report peak in-flight and queued gauges.
// If the first scrape fails (older server, exposition disabled) the
// client warns once and carries on without it.
//
// -trace (default true) stamps every locate batch with a W3C
// traceparent header (verifying the server echoes the same trace ID
// back) and, after the run, fetches the server's flight recorder at
// /debug/requests to print the per-stage timeline — admission queue
// wait, resolver cache hit/build, batch resolve, encode — of the
// slowest batch. Like metrics scraping, it degrades with a warning
// against servers without the endpoint.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// config bundles the flag surface of one load run.
type config struct {
	addr, name            string
	n                     int
	queries, batch        int
	concurrency           int
	workload, resolver    string
	eps, radius           float64
	noise, beta           float64
	seed                  int64
	swapEvery, churnEvery int
	churnKind             string
	sched                 string
	specDir               string
	verify                bool
	scrapeMetrics         bool
	traceRequests         bool
	metricsEvery          time.Duration
}

// statusError is a non-2xx HTTP response surfaced as an error, keeping
// the status code so the caller can tally shed (429) and server-error
// (5xx) batches separately from transport failures.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "base URL of the sinrserve instance")
	flag.StringVar(&cfg.name, "network", "load", "network name to register and query")
	flag.IntVar(&cfg.n, "n", 64, "number of stations")
	flag.IntVar(&cfg.queries, "queries", 200000, "total locate queries to send")
	flag.IntVar(&cfg.batch, "batch", 512, "points per /v1/locate request")
	flag.IntVar(&cfg.concurrency, "concurrency", 8, "concurrent client goroutines")
	flag.StringVar(&cfg.workload, "workload", "uniform", "query workload: uniform, hotspot or mobility")
	flag.StringVar(&cfg.resolver, "resolver", "locator", "serving backend: exact, locator, voronoi, udg or dynamic")
	flag.Float64Var(&cfg.eps, "eps", serve.DefaultEps, "locator performance parameter (locator backend only)")
	flag.Float64Var(&cfg.radius, "radius", 0, "UDG connectivity radius (udg backend only; 0 = derived from the network)")
	flag.Float64Var(&cfg.noise, "noise", 0.01, "background noise")
	flag.Float64Var(&cfg.beta, "beta", 3, "reception threshold")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.swapEvery, "swap-every", 0, "hot-swap the network after every K batches (0 = never)")
	flag.IntVar(&cfg.churnEvery, "churn-every", 0, "PATCH one churn delta after every K batches (0 = never)")
	flag.StringVar(&cfg.churnKind, "churn-kind", "mix", "churn process: arrive, depart, power or mix")
	flag.StringVar(&cfg.sched, "sched", "", "also exercise the schedule endpoint with this scheduler (greedy, lenclass or repair; empty = off)")
	flag.StringVar(&cfg.specDir, "spec-dir", "", "register by writing a declarative spec here (a sinrserve -spec-dir) and wait for reconcile convergence instead of POSTing")
	flag.BoolVar(&cfg.verify, "verify", false, "verify every served answer against the local scan oracle (a local UDG resolver for -resolver udg)")
	flag.BoolVar(&cfg.scrapeMetrics, "scrape-metrics", true, "scrape /metrics before and after the run and report server-side deltas")
	flag.BoolVar(&cfg.traceRequests, "trace", true, "propagate W3C traceparent on locate batches and print the server-side timeline of the slowest one from /debug/requests")
	flag.DurationVar(&cfg.metricsEvery, "metrics-every", 0, "also sample /metrics at this interval during the run for peak gauges (0 = off)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sinrload:", err)
		os.Exit(1)
	}
}

// churnWeights maps -churn-kind to (arrive, depart, power) weights.
func churnWeights(kind string) (float64, float64, float64, error) {
	switch kind {
	case "arrive":
		return 1, 0, 0, nil
	case "depart":
		return 0, 1, 0, nil
	case "power":
		return 0, 0, 1, nil
	case "mix":
		return 1, 1, 1, nil
	default:
		return 0, 0, 0, fmt.Errorf("unknown churn kind %q (want arrive, depart, power or mix)", kind)
	}
}

// deltaFor converts one churn event to the wire delta document.
func deltaFor(ev workload.ChurnEvent) serve.NetworkDeltaRequest {
	switch ev.Kind {
	case workload.ChurnArrive:
		return serve.NetworkDeltaRequest{Add: []serve.DeltaStationJSON{{X: ev.Pos.X, Y: ev.Pos.Y, Power: ev.Power}}}
	case workload.ChurnDepart:
		return serve.NetworkDeltaRequest{Remove: []int{ev.Station}}
	default:
		return serve.NetworkDeltaRequest{SetPower: []serve.PowerUpdateJSON{{Station: ev.Station, Power: ev.Power}}}
	}
}

// localDelta converts the same event for the local mirror engine.
func localDelta(ev workload.ChurnEvent) dynamic.Delta {
	switch ev.Kind {
	case workload.ChurnArrive:
		return dynamic.Delta{Add: []dynamic.Station{{Pos: ev.Pos, Power: ev.Power}}}
	case workload.ChurnDepart:
		return dynamic.Delta{Remove: []int{ev.Station}}
	default:
		return dynamic.Delta{SetPower: []dynamic.PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
	}
}

func run(cfg config) error {
	if cfg.n < 1 || cfg.queries < 1 || cfg.batch < 1 || cfg.concurrency < 1 {
		return fmt.Errorf("-n, -queries, -batch and -concurrency must all be >= 1 (got %d, %d, %d, %d)",
			cfg.n, cfg.queries, cfg.batch, cfg.concurrency)
	}
	if cfg.swapEvery > 0 && cfg.churnEvery > 0 {
		return fmt.Errorf("-swap-every and -churn-every are mutually exclusive (a swap resets the delta history)")
	}
	if cfg.specDir != "" && (cfg.swapEvery > 0 || cfg.churnEvery > 0) {
		return fmt.Errorf("-spec-dir is mutually exclusive with -swap-every and -churn-every (imperative mutations race the reconcile controller)")
	}
	gen := workload.NewGenerator(cfg.seed)
	box := geom.NewBox(geom.Pt(-5, -5), geom.Pt(5, 5))
	stations, err := gen.UniformSeparated(cfg.n, box, 0.05)
	if err != nil {
		return err
	}
	net, err := core.NewUniform(stations, cfg.noise, cfg.beta)
	if err != nil {
		return err
	}
	kind, err := resolve.ParseKind(cfg.resolver)
	if err != nil {
		return err
	}
	pArr, pDep, pPow, err := churnWeights(cfg.churnKind)
	if err != nil {
		return err
	}
	if cfg.sched != "" {
		if _, err := sched.ParseKind(cfg.sched); err != nil {
			return err
		}
	}

	var points []geom.Point
	switch cfg.workload {
	case "uniform":
		points = gen.QueryPoints(cfg.queries, box)
	case "hotspot":
		points = gen.HotspotPoints(cfg.queries, box, 4, 0.8, 0.3)
	case "mobility":
		walkers := cfg.concurrency * 64
		steps := (cfg.queries + walkers - 1) / walkers
		points = gen.MobilityTrace(walkers, steps, box, 0.05)
		points = points[:cfg.queries]
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}

	// Local mirror of the server's generations: version -> the epoch
	// snapshot holding that generation's exact station set. Version 1
	// is the registration; each PATCH (or swap) adds one.
	mirror, err := dynamic.New(net)
	if err != nil {
		return err
	}
	numBatches := (len(points) + cfg.batch - 1) / cfg.batch
	var churnTrace []workload.ChurnEvent
	if cfg.churnEvery > 0 {
		churnTrace = gen.ChurnTrace(cfg.n, numBatches/cfg.churnEvery+1, box, pArr, pDep, pPow, 0.25)
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	reg := registration(cfg.name, stations, cfg.noise, cfg.beta)
	var regResp serve.NetworkResponse
	if cfg.specDir != "" {
		regResp, err = registerViaSpec(client, cfg.addr, cfg.specDir, reg)
	} else {
		regResp, err = register(client, cfg.addr, reg)
	}
	if err != nil {
		return fmt.Errorf("registering network: %w", err)
	}
	epochs := map[uint64]*dynamic.Snapshot{regResp.Version: mirror.Snapshot()}
	fmt.Printf("registered %q: %d stations, workload=%s, resolver=%s, %d queries in batches of %d over %d clients\n",
		cfg.name, cfg.n, cfg.workload, kind, len(points), cfg.batch, cfg.concurrency)

	// Pre-traffic schedule: computed fresh for this generation and
	// re-validated against a locally rebuilt feasibility engine. The
	// post-run request (below) must then repair — not recompute — it
	// if the run churned the station set.
	if cfg.sched != "" {
		out, err := schedule(client, cfg.addr, cfg.name, serve.ScheduleRequest{Scheduler: cfg.sched})
		if err != nil {
			return fmt.Errorf("initial schedule: %w", err)
		}
		if err := verifySchedule(out, epochs); err != nil {
			return fmt.Errorf("initial schedule: %w", err)
		}
		fmt.Printf("schedule[%s]: %d links in %d slots at version %d (path=%s), valid against the local engine\n",
			out.Scheduler, out.NumLinks, out.NumSlots, out.Version, out.Path)
	}

	// Server-side view: snapshot /metrics before traffic so the report
	// can show this run's deltas; a scrape failure (exposition absent)
	// downgrades to client-only reporting with one warning.
	var before []metrics.Sample
	if cfg.scrapeMetrics {
		if before, err = scrape(client, cfg.addr); err != nil {
			fmt.Fprintf(os.Stderr, "sinrload: disabling metrics scraping: %v\n", err)
			cfg.scrapeMetrics = false
		}
	}
	var peak peakSampler
	if cfg.scrapeMetrics && cfg.metricsEvery > 0 {
		peak.start(client, cfg.addr, cfg.metricsEvery)
	}

	served := make([]int, len(points))      // station index or -1 per query
	servedVer := make([]uint64, numBatches) // generation that answered each batch
	latencies := make([]time.Duration, numBatches)

	// Client-side trace identity: one traceparent per batch, so the
	// slowest batch seen here can be matched to its server-side
	// per-stage timeline in the flight recorder afterwards.
	var tids *trace.IDSource
	var batchTrace []string
	if cfg.traceRequests {
		tids = trace.NewIDSource()
		batchTrace = make([]string, numBatches)
	}
	var next atomic.Int64
	var failed atomic.Int64
	var fail429, fail5xx, failOther atomic.Int64
	var swaps, churns atomic.Int64

	// mutMu serializes mutations (swaps and churn deltas) and the
	// epochs map, so the local mirror applies deltas in exactly the
	// order the server does and version numbers line up.
	var mutMu sync.Mutex
	churnIdx := 0
	lastVer := regResp.Version // server versions are offset when the name pre-existed
	doChurn := func(b int) {
		mutMu.Lock()
		defer mutMu.Unlock()
		if churnIdx >= len(churnTrace) {
			return
		}
		ev := churnTrace[churnIdx]
		churnIdx++
		resp, err := patch(client, cfg.addr, cfg.name, deltaFor(ev))
		if err != nil {
			failed.Add(1)
			failOther.Add(1)
			fmt.Fprintf(os.Stderr, "sinrload: churn after batch %d: %v\n", b, err)
			return
		}
		snap, err := mirror.Apply(localDelta(ev))
		if err != nil {
			failed.Add(1)
			failOther.Add(1)
			fmt.Fprintf(os.Stderr, "sinrload: mirroring churn delta: %v\n", err)
			return
		}
		// The mirror tracks generations, not absolute versions: the
		// server's version counter survives re-registrations of the
		// same name, so assert per-delta monotonicity and that the
		// server's engine epoch moved in lockstep with the mirror's —
		// not that version and epoch coincide.
		if resp.Version != lastVer+1 || resp.Epoch != snap.Epoch() {
			failed.Add(1)
			failOther.Add(1)
			fmt.Fprintf(os.Stderr, "sinrload: server at version %d epoch %d after delta, expected version %d, local mirror epoch %d\n",
				resp.Version, resp.Epoch, lastVer+1, snap.Epoch())
			return
		}
		lastVer = resp.Version
		epochs[resp.Version] = snap
		churns.Add(1)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= numBatches {
					return
				}
				lo := b * cfg.batch
				hi := lo + cfg.batch
				if hi > len(points) {
					hi = len(points)
				}
				tp := ""
				if tids != nil {
					seq := tids.Next()
					tid := tids.TraceID(seq)
					tp = trace.FormatTraceparent(tid, tids.SpanIDFor(seq))
					batchTrace[b] = tid.String()
				}
				t0 := time.Now()
				results, version, err := locate(client, cfg.addr, cfg.name, kind.String(), cfg.eps, cfg.radius, points[lo:hi], tp)
				latencies[b] = time.Since(t0)
				if err != nil {
					// Any non-2xx is a hard failure, tallied by class so
					// the report separates shedding (429) from server
					// errors (5xx); only the first few per class are
					// printed — an overloaded server sheds thousands.
					failed.Add(1)
					var printed int64
					var se *statusError
					switch {
					case errors.As(err, &se) && se.code == http.StatusTooManyRequests:
						printed = fail429.Add(1)
					case errors.As(err, &se) && se.code >= 500:
						printed = fail5xx.Add(1)
					default:
						printed = failOther.Add(1)
					}
					if printed <= 3 {
						fmt.Fprintf(os.Stderr, "sinrload: batch %d: %v\n", b, err)
					}
					continue
				}
				servedVer[b] = version
				for i, r := range results {
					served[lo+i] = r.Station
				}
				// Hot-swap under load: re-register the same stations,
				// bumping the version and forcing a resolver rebuild while
				// other clients keep querying.
				if cfg.swapEvery > 0 && b > 0 && b%cfg.swapEvery == 0 {
					mutMu.Lock()
					resp, err := register(client, cfg.addr, reg)
					if err != nil {
						failed.Add(1)
						failOther.Add(1)
						fmt.Fprintf(os.Stderr, "sinrload: hot swap after batch %d: %v\n", b, err)
					} else {
						// Stations unchanged: the new generation serves the
						// same epoch-1 station set.
						lastVer = resp.Version
						epochs[resp.Version] = mirror.Snapshot()
						swaps.Add(1)
					}
					mutMu.Unlock()
				}
				if cfg.churnEvery > 0 && b > 0 && b%cfg.churnEvery == 0 {
					doChurn(b)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	peak.finish()

	// Identify the slowest batch before the quantile sort destroys the
	// batch-index association.
	slowestBatch, slowestDur := 0, time.Duration(0)
	for b, d := range latencies {
		if d > slowestDur {
			slowestBatch, slowestDur = b, d
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	qps := float64(len(points)) / elapsed.Seconds()
	fmt.Printf("served %d queries in %v (%.0f queries/s, %d batches, %d hot swaps, %d churn deltas, %d failed)\n",
		len(points), elapsed.Round(time.Millisecond), qps, numBatches, swaps.Load(), churns.Load(), failed.Load())
	fmt.Printf("batch latency: p50=%v p90=%v p99=%v max=%v\n",
		pct(latencies, 0.50), pct(latencies, 0.90), pct(latencies, 0.99), latencies[len(latencies)-1].Round(time.Microsecond))

	if cfg.scrapeMetrics {
		if after, err := scrape(client, cfg.addr); err != nil {
			fmt.Fprintf(os.Stderr, "sinrload: final metrics scrape: %v\n", err)
		} else {
			reportServerMetrics(before, after, &peak, cfg.metricsEvery)
		}
	}

	if cfg.traceRequests && batchTrace != nil {
		if err := reportSlowestTrace(client, cfg.addr, batchTrace[slowestBatch], slowestDur); err != nil {
			// Timeline reporting degrades like metrics scraping: an old
			// server without /debug/requests just loses the report.
			fmt.Fprintf(os.Stderr, "sinrload: skipping trace timeline: %v\n", err)
		}
	}

	if failed.Load() > 0 {
		return fmt.Errorf("%d requests failed hard (429=%d, 5xx=%d, other=%d)",
			failed.Load(), fail429.Load(), fail5xx.Load(), failOther.Load())
	}

	if cfg.verify {
		mismatches, err := verifyServed(cfg, kind, epochs, points, served, servedVer, numBatches)
		if err != nil {
			return err
		}
		if mismatches > 0 {
			return fmt.Errorf("%d of %d served %s answers differ from %s", mismatches, len(points), kind, referenceName(kind))
		}
		fmt.Printf("verified: all %d served %s answers identical to %s across %d generation(s)\n",
			len(points), kind, referenceName(kind), len(epochs))
	}

	if cfg.sched != "" {
		out, err := schedule(client, cfg.addr, cfg.name, serve.ScheduleRequest{Scheduler: cfg.sched})
		if err != nil {
			return fmt.Errorf("post-run schedule: %w", err)
		}
		if err := verifySchedule(out, epochs); err != nil {
			return fmt.Errorf("post-run schedule: %w", err)
		}
		if churns.Load() > 0 {
			if out.Path != "repaired" {
				return fmt.Errorf("post-churn schedule path = %q at version %d, want repaired", out.Path, out.Version)
			}
			if out.Repair == nil {
				return fmt.Errorf("post-churn schedule carries no repair stats")
			}
		}
		fmt.Printf("schedule[%s]: %d links in %d slots at version %d (path=%s), valid against the local engine\n",
			out.Scheduler, out.NumLinks, out.NumSlots, out.Version, out.Path)
	}
	return nil
}

// schedule POSTs one scheduling request for the named network.
func schedule(client *http.Client, addr, name string, req serve.ScheduleRequest) (serve.ScheduleResponse, error) {
	var out serve.ScheduleResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := client.Post(addr+"/v1/networks/"+name+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("schedule: %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// verifySchedule re-derives the answering generation's link set from
// the local mirror and re-checks every served slot through a locally
// built feasibility engine: the served schedule must validate without
// the links themselves ever crossing the wire.
func verifySchedule(out serve.ScheduleResponse, epochs map[uint64]*dynamic.Snapshot) error {
	snap, ok := epochs[out.Version]
	if !ok {
		return fmt.Errorf("schedule answered from version %d, which no local mutation produced", out.Version)
	}
	net := snap.Network()
	powers := make([]float64, net.NumStations())
	for i := range powers {
		powers[i] = net.Power(i)
	}
	links := sched.DeriveLinks(net.Stations(), powers, out.LinkLen)
	var f sched.Feasibility
	switch out.Model {
	case "sinr":
		p, err := sched.NewSINRProblem(links, net.Noise(), net.Beta())
		if err != nil {
			return err
		}
		p.Alpha = net.Alpha()
		f = p
	case "protocol":
		p, err := sched.NewProtocolProblem(links, 1.5*out.LinkLen, 3*out.LinkLen)
		if err != nil {
			return err
		}
		f = p
	default:
		return fmt.Errorf("served schedule names unknown model %q", out.Model)
	}
	if out.NumLinks != len(links) {
		return fmt.Errorf("schedule covers %d links, generation %d has %d", out.NumLinks, out.Version, len(links))
	}
	s := &sched.Schedule{Slots: out.Slots}
	if err := s.Validate(f); err != nil {
		return fmt.Errorf("served schedule invalid against the local %s engine: %v", out.Model, err)
	}
	return nil
}

// verifyServed rebuilds, per server generation, an independent local
// reference and compares every served answer against it: the scan
// oracle (resolve.KindExact) for every SINR kind, whose served answers
// are exact by construction, and a local UDG resolver for udg, a
// different reception model (referenceKind). Checking the SINR kinds
// against the scan rather than a local resolver of the same kind keeps
// the check independent of the engine that answered. Batches are
// grouped by the generation that answered them, so answers racing a
// swap or churn delta are checked against the right station set. It
// returns the mismatch count; the caller turns a nonzero count into a
// non-zero exit.
func verifyServed(cfg config, kind resolve.Kind, epochs map[uint64]*dynamic.Snapshot,
	points []geom.Point, served []int, servedVer []uint64, numBatches int) (int, error) {
	byVer := make(map[uint64][]int)
	for b := 0; b < numBatches; b++ {
		// A failed batch never recorded its answering generation (the
		// sentinel 0 predates every real version). It was already
		// counted as a hard error; there are no answers to verify, and
		// checking its zeroed slots would fabricate mismatches.
		if servedVer[b] == 0 {
			continue
		}
		byVer[servedVer[b]] = append(byVer[servedVer[b]], b)
	}
	versions := make([]uint64, 0, len(byVer))
	for v := range byVer {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })

	mismatches := 0
	for _, ver := range versions {
		snap, ok := epochs[ver]
		if !ok {
			return 0, fmt.Errorf("server answered from version %d, which no local mutation produced", ver)
		}
		vkind := referenceKind(kind)
		var vopts []resolve.Option
		if cfg.radius > 0 {
			vopts = append(vopts, resolve.WithRadius(cfg.radius))
		}
		local, err := resolve.New(vkind, snap.Network(), vopts...)
		if err != nil {
			return 0, fmt.Errorf("rebuilding the %s backend for version %d: %w", vkind, ver, err)
		}
		var pts []geom.Point
		var got []int
		for _, b := range byVer[ver] {
			lo := b * cfg.batch
			hi := lo + cfg.batch
			if hi > len(points) {
				hi = len(points)
			}
			pts = append(pts, points[lo:hi]...)
			got = append(got, served[lo:hi]...)
		}
		answers := make([]core.Location, len(pts))
		if err := local.ResolveBatch(context.Background(), pts, answers); err != nil {
			return 0, err
		}
		for i, a := range answers {
			if want := resolve.StationIndex(a); got[i] != want {
				if mismatches < 5 {
					fmt.Fprintf(os.Stderr, "sinrload: version %d mismatch at %v: served %d, %s %d\n",
						ver, pts[i], got[i], referenceName(kind), want)
				}
				mismatches++
			}
		}
	}
	return mismatches, nil
}

// referenceKind is the local backend verifyServed checks the served
// answers of kind against.
func referenceKind(kind resolve.Kind) resolve.Kind {
	if kind == resolve.KindUDG {
		return resolve.KindUDG
	}
	return resolve.KindExact
}

// referenceName names referenceKind(kind) in the run's report.
func referenceName(kind resolve.Kind) string {
	if referenceKind(kind) == resolve.KindUDG {
		return "the local UDG resolver"
	}
	return "the local scan oracle"
}

func registration(name string, stations []geom.Point, noise, beta float64) serve.NetworkSpec {
	req := serve.NetworkSpec{Name: name, Noise: noise, Beta: beta}
	req.Stations = make([]serve.SpecStation, len(stations))
	for i, s := range stations {
		req.Stations[i] = serve.SpecStation{X: s.X, Y: s.Y}
	}
	return req
}

func register(client *http.Client, addr string, req serve.NetworkSpec) (serve.NetworkResponse, error) {
	var out serve.NetworkResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := client.Post(addr+"/v1/networks", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("register: %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// registerViaSpec lands the registration declaratively: the canonical
// spec is written atomically (tmp + rename, so the controller's lister
// never sees a half file) into the server's spec directory, then GET
// /v1/networks/{name} is polled until the readback is byte-identical
// to what was written — reconcile convergence, observed end to end
// through the public API.
func registerViaSpec(client *http.Client, addr, dir string, spec serve.NetworkSpec) (serve.NetworkResponse, error) {
	var out serve.NetworkResponse
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return out, err
	}
	tmp := filepath.Join(dir, "."+spec.Name+".json.tmp")
	if err := os.WriteFile(tmp, canonical, 0o644); err != nil {
		return out, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, spec.Name+".json")); err != nil {
		return out, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body, version, ok, err := getSpec(client, addr, spec.Name)
		if err == nil && ok && bytes.Equal(body, canonical) {
			return serve.NetworkResponse{
				Name: spec.Name, Version: version,
				Stations: len(spec.Stations), Resolver: spec.Resolver,
			}, nil
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sinrload: spec readback poll: %v\n", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return out, fmt.Errorf("spec for %q did not converge within 30s", spec.Name)
}

// getSpec reads the canonical spec behind name's live generation; ok
// is false while the network does not exist yet.
func getSpec(client *http.Client, addr, name string) (body []byte, version uint64, ok bool, err error) {
	resp, err := client.Get(addr + "/v1/networks/" + name)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, 0, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, false, &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("get spec: %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, false, err
	}
	version, _ = strconv.ParseUint(resp.Header.Get("Sinr-Network-Version"), 10, 64)
	return b, version, true, nil
}

// patch applies one delta document via PATCH /v1/networks/{name}.
func patch(client *http.Client, addr, name string, delta serve.NetworkDeltaRequest) (serve.NetworkResponse, error) {
	var out serve.NetworkResponse
	body, err := json.Marshal(delta)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequest(http.MethodPatch, addr+"/v1/networks/"+name, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("patch: %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// locate posts one batch. When traceparent is non-empty it is
// propagated on the request, and the server's echoed traceparent must
// carry the same trace ID — a broken round trip is a hard error, while
// a missing echo is tolerated (an older server that does not trace).
func locate(client *http.Client, addr, name, resolver string, eps, radius float64, pts []geom.Point, traceparent string) ([]serve.LocateResult, uint64, error) {
	req := serve.LocateRequest{Network: name, Resolver: resolver, Eps: eps, Radius: radius}
	req.Points = make([]serve.PointJSON, len(pts))
	for i, p := range pts {
		req.Points[i] = serve.PointJSON{X: p.X, Y: p.Y}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, addr+"/v1/locate", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("Traceparent", traceparent)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	if traceparent != "" {
		if echo := resp.Header.Get("Traceparent"); echo != "" {
			sentID, _, okSent := trace.ParseTraceparent(traceparent)
			gotID, _, okGot := trace.ParseTraceparent(echo)
			if !okSent || !okGot || gotID != sentID {
				resp.Body.Close()
				return nil, 0, fmt.Errorf("locate: traceparent did not round-trip: sent %q, got %q", traceparent, echo)
			}
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("locate: %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	var out serve.LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, err
	}
	if len(out.Results) != len(pts) {
		return nil, 0, fmt.Errorf("locate: %d results for %d points", len(out.Results), len(pts))
	}
	return out.Results, out.Version, nil
}

// reportSlowestTrace fetches the server's flight recorder and prints
// the per-stage timeline of this run's slowest batch. The recorder
// tail-samples, so the client's slowest batch is normally captured; if
// it was displaced (another route's traffic, a slower non-locate
// request), the recorder's own slowest locate trace is shown instead.
func reportSlowestTrace(client *http.Client, addr, wantTraceID string, clientDur time.Duration) error {
	resp, err := client.Get(addr + "/debug/requests?route=locate")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/requests: %s", resp.Status)
	}
	var caps []trace.Captured
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		return fmt.Errorf("/debug/requests: %v", err)
	}
	if len(caps) == 0 {
		return fmt.Errorf("/debug/requests returned no captured locate traces")
	}
	pick := caps[0] // slowest first
	matched := false
	for _, c := range caps {
		if c.TraceID == wantTraceID {
			pick, matched = c, true
			break
		}
	}
	if matched {
		fmt.Printf("slowest batch server timeline (client %v, trace %s):\n",
			clientDur.Round(time.Microsecond), pick.TraceID)
	} else {
		fmt.Printf("slowest batch (trace %s, client %v) not in the flight recorder; server's slowest locate trace %s instead:\n",
			wantTraceID, clientDur.Round(time.Microsecond), pick.TraceID)
	}
	fmt.Printf("  route=%s network=%s status=%d total=%.3fms spans=%d\n",
		pick.Route, pick.Network, pick.Status, pick.DurationMS, len(pick.Spans))
	for _, sp := range pick.Spans {
		fmt.Printf("    %10.3fms  %10.3fms  %s\n", sp.StartMS, sp.DurationMS, sp.Name)
	}
	if pick.DroppedSpans > 0 {
		fmt.Printf("    (%d spans dropped at capacity %d)\n", pick.DroppedSpans, trace.MaxSpans)
	}
	return nil
}

// pct returns the p-quantile of sorted latencies.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i].Round(time.Microsecond)
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(client *http.Client, addr string) ([]metrics.Sample, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, msg: fmt.Sprintf("metrics: %s", resp.Status)}
	}
	return metrics.Parse(resp.Body)
}

// peakSampler polls /metrics at an interval while the run is live,
// tracking gauge peaks the before/after snapshots cannot see: the
// in-flight and queued gauges spike mid-run and are back near zero by
// the final scrape.
type peakSampler struct {
	mu          sync.Mutex
	maxInflight float64
	maxQueued   float64
	samples     int
	stop, done  chan struct{}
}

func (p *peakSampler) start(client *http.Client, addr string, every time.Duration) {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				samples, err := scrape(client, addr)
				if err != nil {
					continue // transient; the run keeps the server busy
				}
				p.mu.Lock()
				p.samples++
				if v, ok := metrics.Value(samples, "sinr_http_inflight"); ok && v > p.maxInflight {
					p.maxInflight = v
				}
				if v, ok := metrics.Value(samples, "sinr_admission_queued"); ok && v > p.maxQueued {
					p.maxQueued = v
				}
				p.mu.Unlock()
			}
		}
	}()
}

// finish stops the sampler and waits it out; safe when never started.
func (p *peakSampler) finish() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
	}
}

// deltaValue returns after-before for the named series (0 when either
// scrape lacks it — e.g. a gauge the server version doesn't export).
func deltaValue(before, after []metrics.Sample, name string, labels ...metrics.Label) float64 {
	b, _ := metrics.Value(before, name, labels...)
	a, _ := metrics.Value(after, name, labels...)
	return a - b
}

// deltaBuckets subtracts the before-scrape's cumulative histogram
// buckets from the after-scrape's, yielding the histogram of exactly
// this run's observations.
func deltaBuckets(before, after []metrics.Sample, name string, labels ...metrics.Label) []metrics.Bucket {
	prev := map[float64]float64{}
	for _, b := range metrics.Buckets(before, name, labels...) {
		prev[b.LE] = b.Count
	}
	cur := metrics.Buckets(after, name, labels...)
	out := make([]metrics.Bucket, 0, len(cur))
	for _, b := range cur {
		out = append(out, metrics.Bucket{LE: b.LE, Count: b.Count - prev[b.LE]})
	}
	return out
}

// quantileDur renders a BucketQuantile estimate as a duration ("n/a"
// for an empty histogram).
func quantileDur(q float64, buckets []metrics.Bucket) string {
	sec := metrics.BucketQuantile(q, buckets)
	if sec != sec { // NaN: nothing observed
		return "n/a"
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// reportServerMetrics prints the server's own view of the run — the
// deltas between the two /metrics scrapes bracketing the traffic — so
// client percentiles land next to the numbers an operator's dashboard
// would show for the same window: shed counts explain client 429s,
// and the server-side histogram separates queueing from compute.
func reportServerMetrics(before, after []metrics.Sample, peak *peakSampler, every time.Duration) {
	locateRoute := metrics.L("route", "locate")
	fmt.Printf("server: locate 2xx=%.0f 429=%.0f 5xx=%.0f shed=%.0f, cache hits +%.0f misses +%.0f\n",
		deltaValue(before, after, "sinr_http_requests_total", locateRoute, metrics.L("code", "2xx")),
		deltaValue(before, after, "sinr_http_requests_total", locateRoute, metrics.L("code", "429")),
		deltaValue(before, after, "sinr_http_requests_total", locateRoute, metrics.L("code", "5xx")),
		deltaValue(before, after, "sinr_admission_shed_total", locateRoute),
		deltaValue(before, after, "sinr_resolver_cache_hits_total"),
		deltaValue(before, after, "sinr_resolver_cache_misses_total"))
	buckets := deltaBuckets(before, after, "sinr_http_request_seconds", locateRoute)
	fmt.Printf("server: locate latency p50=%s p90=%s p99=%s (from /metrics histogram delta)\n",
		quantileDur(0.50, buckets), quantileDur(0.90, buckets), quantileDur(0.99, buckets))
	if peak.samples > 0 {
		fmt.Printf("server: peak inflight=%.0f queued=%.0f (%d samples, every %v)\n",
			peak.maxInflight, peak.maxQueued, peak.samples, every)
	}
}
