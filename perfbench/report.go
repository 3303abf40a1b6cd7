package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// layerValue looks a span name up in the per-operation self times,
// scaled to the metric's unit; a layer the run never called is NaN.
func layerValue(ns map[string]float64, name string, scale float64) float64 {
	v, ok := ns[name]
	if !ok {
		return math.NaN()
	}
	return v / scale
}

// traceReport prints the traced run's end-to-end numbers next to the
// untraced ones, the per-layer metrics and the reconciliation, and adds
// the per-layer metrics to the result.
func traceReport(out io.Writer, s shape, w *window, e e2e, ns map[string]float64, pr properties, res *result) {
	printMetrics(out, "end-to-end untraced", e.all())
	printMetrics(out, "end-to-end traced  ", e.traced)
	for i, t := range e.traced {
		u := e.untraced[i]
		fmt.Fprintf(out, "tracing overhead %-14s traced %.6g vs untraced %.6g %s (%+.1f%%)\n",
			t.name, t.value, u.value, t.unit, 100*(t.value-u.value)/u.value)
	}

	us := func(name string) float64 { return layerValue(ns, name, 1e3) }
	decode, encode := us("serve.decode"), us("serve.encode")
	handler, batch := us("serve.handler"), us("resolve.batch")
	self := handler - decode - batch - encode
	transport := us("http.locate")
	common := []metric{
		{"serve.decode_us", "us", decode},
		{"serve.encode_us", "us", encode},
		{"serve.handler_us", "us", handler},
		{"serve.self_us", "us", self},
		{"serve.transport_us", "us", transport},
		{"resolve.batch_us", "us", batch},
		{"core.sinr_ns", "ns", layerValue(ns, "core.sinr", 1)},
		{"core.heardby_ns", "ns", layerValue(ns, "core.heardby", 1)},
		{"kdtree.nearest_ns", "ns", layerValue(ns, "kdtree.nearest", 1)},
		{"dynamic.locate_ns", "ns", layerValue(ns, "dynamic.locate", 1)},
		{"dynamic.new_ms", "ms", layerValue(ns, "dynamic.new", 1e6)},
		{"shardindex.covers_ns", "ns", layerValue(ns, "shardindex.covers", 1)},
		{"shardindex.build_ms", "ms", layerValue(ns, "shardindex.build", 1e6)},
		{"shardindex.fast_exit_frac", "ratio", pr.fastExitFrac},
		{"core.heard_frac", "ratio", pr.heardFrac},
		{"serve.resolver_builds", "count", float64(w.builds)},
	}
	for _, m := range common {
		res.add(m.name, m.unit, m.value)
	}
	printMetrics(out, "per-layer", common)

	var extra []metric
	if s.resolver == "locator" {
		extra = append(extra,
			metric{"core.locator_build_s", "s", layerValue(ns, "core.locator_build", 1e9)},
			metric{"core.qds_build_ms", "ms", layerValue(ns, "core.qds_build", 1e6)},
			metric{"core.locate_ns", "ns", layerValue(ns, "core.locate", 1)},
			metric{"core.uncertain_frac", "ratio", pr.uncertainFrac},
		)
	}
	if s.patchRate > 0 {
		rebuilds := 0
		for _, p := range w.patches {
			if p.path == "rebuild" {
				rebuilds++
			}
		}
		kept, displaced := 0, 0
		for _, r := range w.scheds {
			if r.resp.Repair != nil {
				kept += r.resp.Repair.Kept
				displaced += r.resp.Repair.Displaced
			}
		}
		extra = append(extra,
			metric{"serve.patch_us", "us", us("serve.patch")},
			metric{"serve.sched_ms", "ms", layerValue(ns, "serve.sched", 1e6)},
			metric{"dynamic.apply_us", "us", us("dynamic.apply")},
			metric{"dynamic.rebuild_frac", "ratio", float64(rebuilds) / float64(max(len(w.patches), 1))},
			metric{"sched.repair_ms", "ms", layerValue(ns, "sched.repair", 1e6)},
			metric{"sched.displaced_frac", "ratio", float64(displaced) / float64(max(kept+displaced, 1))},
		)
	}
	printMetrics(out, "per-layer "+s.name, extra)

	p50 := 1e3 * e.untraced[1].value // untraced batch_p50_ms in us
	sum := transport + self + decode + batch + encode
	fmt.Fprintf(out, "reconcile %s: batch_p50_ms %.1f us vs serve.transport_us %.1f + serve.self_us %.1f + serve.decode_us %.1f + resolve.batch_us %.1f + serve.encode_us %.1f = %.1f us; residual %+.1f us (%+.1f%%)\n",
		s.name, p50, transport, self, decode, batch, encode, sum, p50-sum, 100*(p50-sum)/p50)
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			RID    int64  `json:"rid"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Ops    int    `json:"ops"`
		}{s.id, s.parent, s.rid, s.name, s.start, s.end, s.ops}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
