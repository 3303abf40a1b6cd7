// Command sinrbench runs the full experiment suite of the
// reproduction — every figure and theorem of the paper — and prints
// one paper-vs-measured table per experiment.
//
// Usage:
//
//	sinrbench [-trials N] [-only E7] [-parallel W]
//	          [-resolver exact|locator|voronoi|udg|all]
//	          [-resolvers-out BENCH_resolvers.json]
//	          [-hotpath-sizes 16,64,256,1024] [-hotpath-queries 4096]
//	          [-hotpath-out BENCH_hotpath.json]
//	          [-churn-sizes 16,64,256,1024] [-churn-events 64]
//	          [-churn-queries 512] [-churn-out BENCH_dynamic.json]
//	          [-sched-sizes 1000,10000,100000] [-sched-out BENCH_sched.json]
//
// -trials scales the randomized validations (default 5); -only runs a
// single experiment by id; -parallel sets the worker count for the
// concurrency-layer experiments (0, the default, means one worker per
// CPU; 1 forces the serial code paths). -resolver restricts the E17
// cross-backend comparison to one query backend (default all four)
// and -resolvers-out is where E17 writes its BENCH_resolvers.json
// artifact (qps/latency/disagreement per workload x backend; empty
// disables the file). The -hotpath-* flags steer E18, the sharded
// spatial-index hot-path comparison: the network-size axis, the
// per-workload query count, and the path of its BENCH_hotpath.json
// artifact (no file unless a path is given, so a plain suite run
// never clobbers the committed perf trajectory). The committed
// BENCH_hotpath.json is regenerated explicitly with
//
//	sinrbench -only E18 -hotpath-sizes 16,64,256,1024 \
//	          -hotpath-out BENCH_hotpath.json
//
// — the n=1024 leg builds a large Theorem 3 locator; expect about
// 15 s on two cores.
//
// The -churn-* flags steer E19, the dynamic-churn comparison
// (incremental epoch Apply vs from-scratch rebuild, with exact
// correctness probes at checkpoints): the network-size axis, the
// churn-trace length and probe count per cell, and the path of its
// BENCH_dynamic.json artifact. The committed BENCH_dynamic.json is
// regenerated explicitly with
//
//	sinrbench -only E19 -churn-sizes 16,64,256,1024 \
//	          -churn-out BENCH_dynamic.json
//
// The -sched-* flags steer E20, the scheduling-at-scale comparison
// (the three schedulers over the incremental slot engines, SINR vs
// protocol model, with an incremental-vs-scan feasibility race): the
// link-count axis and the path of its BENCH_sched.json artifact. The
// committed BENCH_sched.json is regenerated explicitly with
//
//	sinrbench -only E20 -sched-sizes 1000,10000,100000 \
//	          -sched-out BENCH_sched.json
//
// — the n=100000 legs build and validate 10^5-link schedules; expect
// minutes on one core.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
)

func main() {
	trials := flag.Int("trials", 5, "trials per randomized validation cell")
	only := flag.String("only", "", "run only the experiment with this id (e.g. E7)")
	parallel := flag.Int("parallel", 0, "workers for concurrency-layer experiments (0 = NumCPU, 1 = serial)")
	resolver := flag.String("resolver", "all", "restrict the E17 cross-backend comparison to one backend (exact, locator, voronoi, udg or all)")
	resolversOut := flag.String("resolvers-out", "BENCH_resolvers.json", "path E17 writes its JSON artifact to (empty = no file)")
	hotpathSizes := flag.String("hotpath-sizes", "16,64,256", "comma-separated network sizes of the E18 hot-path comparison (the committed artifact uses 16,64,256,1024; the n=1024 build takes about 15 s on two cores)")
	hotpathQueries := flag.Int("hotpath-queries", exp.DefaultHotPathQueries, "queries per workload in E18")
	hotpathOut := flag.String("hotpath-out", "", "path E18 writes its JSON artifact to (empty = no file; the committed trajectory is regenerated explicitly, see CONTRIBUTING.md)")
	churnSizes := flag.String("churn-sizes", "16,64,256", "comma-separated network sizes of the E19 dynamic-churn comparison (the committed artifact uses 16,64,256,1024)")
	churnEvents := flag.Int("churn-events", exp.DefaultDynamicEvents, "churn-trace length per (size, process) cell in E19")
	churnQueries := flag.Int("churn-queries", exp.DefaultDynamicQueries, "correctness probes per checkpoint in E19")
	churnOut := flag.String("churn-out", "", "path E19 writes its JSON artifact to (empty = no file; the committed trajectory is regenerated explicitly, see CONTRIBUTING.md)")
	schedSizes := flag.String("sched-sizes", "256,1024", "comma-separated link counts of the E20 scheduling comparison (the committed artifact uses 1000,10000,100000; the n=100000 legs take minutes)")
	schedOut := flag.String("sched-out", "", "path E20 writes its JSON artifact to (empty = no file; the committed trajectory is regenerated explicitly, see CONTRIBUTING.md)")
	flag.Parse()

	sizes, err := parseSizes("-hotpath-sizes", *hotpathSizes, exp.DefaultHotPathSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sinrbench:", err)
		os.Exit(1)
	}
	dynSizes, err := parseSizes("-churn-sizes", *churnSizes, exp.DefaultDynamicSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sinrbench:", err)
		os.Exit(1)
	}
	schSizes, err := parseSizes("-sched-sizes", *schedSizes, exp.DefaultSchedSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sinrbench:", err)
		os.Exit(1)
	}
	if err := run(*trials, *only, *parallel, *resolver, *resolversOut, sizes, *hotpathQueries, *hotpathOut,
		dynSizes, *churnEvents, *churnQueries, *churnOut, schSizes, *schedOut); err != nil {
		fmt.Fprintln(os.Stderr, "sinrbench:", err)
		os.Exit(1)
	}
}

// parseSizes parses a network-size-axis comma list (the -hotpath-sizes
// and -churn-sizes flags).
func parseSizes(flagName, s string, def []int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad %s entry %q (want integers >= 2)", flagName, f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func run(trials int, only string, workers int, resolver, resolversOut string, hotSizes []int, hotQueries int, hotPathOut string,
	dynSizes []int, dynEvents, dynQueries int, dynOut string, schedSizes []int, schedOut string) error {
	failed, ran := 0, 0
	for _, e := range exp.Registry(trials, workers, resolver, resolversOut, hotSizes, hotQueries, hotPathOut,
		dynSizes, dynEvents, dynQueries, dynOut, schedSizes, schedOut) {
		if only != "" && !strings.EqualFold(e.ID, only) {
			continue
		}
		t, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(t)
		ran++
		if !t.Pass {
			failed++
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches id %q", only)
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed to reproduce the paper's shape", failed)
	}
	fmt.Println("all selected experiments reproduce the paper's qualitative results")
	return nil
}
