package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail percentile resting on fewer samples moves with a single slow
// request, so the benchmark refuses to report it instead.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending
// sample — element ceil(q·n)−1 — and whether at least minBeyond
// samples lie strictly after that rank. Failed requests enter the
// sample as +Inf, so they count as missing every latency limit.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// median is the middle of xs (the mean of the two middles for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies is a set of per-request latencies in milliseconds.
type latencies []float64

// quantile sorts the sample and returns its q-quantile, failing when the
// sample cannot support it under the minBeyond rule (unless lax: smoke
// runs are too small for tails and report them only as a check that the
// path works).
func (l latencies) quantile(q float64, lax bool) (float64, error) {
	slices.Sort(l)
	v, ok := percentile(l, q)
	if len(l) == 0 || !ok && !lax {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", q*100, len(l), minBeyond)
	}
	if math.IsInf(v, 1) {
		return 0, fmt.Errorf("p%g of %d samples is a failed request", q*100, len(l))
	}
	return v, nil
}
