package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency stands for a failed or refused request: slower than any
// limit, so it sorts above every real sample.
const failedLatency = time.Duration(math.MaxInt64)

// quantile returns the q-quantile (nearest rank) of ds, sorting ds in
// place. It is NaN for an empty sample.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	k = max(0, min(k, len(ds)-1))
	if ds[k] == failedLatency {
		return math.Inf(1)
	}
	return float64(ds[k])
}

func ms(ns float64) float64 { return ns / 1e6 }

// median returns the median of xs (mean of the middle pair for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// beyondP99 is how many samples lie above the 99th percentile; a p99 is
// reported as supported only when at least ten do.
func beyondP99(n int) int { return n - int(math.Ceil(0.99*float64(n))) }
