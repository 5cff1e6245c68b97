package main

import (
	"math"
	"slices"
)

// opRecord is one operation of a timed window.
type opRecord struct {
	op    string
	ms    float64 // latency; +Inf when it failed
	units float64 // workload units it completed: reports or queries
}

// tally counts a workload's operations and keeps one record per
// operation of the timed window.
type tally struct {
	attempted, failed int64
	recs              []opRecord
}

var inf = math.Inf(1)

func (t *tally) add(op string, ms float64, ok bool, units float64) {
	t.attempted++
	if !ok {
		t.failed++
		ms, units = inf, 0
	}
	t.recs = append(t.recs, opRecord{op: op, ms: ms, units: units})
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.recs = append(t.recs, o.recs...)
}

// of returns the latencies of the named ops (every op when none is
// named).
func (t *tally) of(ops ...string) latencies {
	var out latencies
	for _, r := range t.recs {
		if len(ops) == 0 || slices.Contains(ops, r.op) {
			out = append(out, r.ms)
		}
	}
	return out
}

// summary is a timed window's end-to-end figures, over every operation
// of the window.
type summary struct {
	throughput float64 // units per second
	p50, p99   float64 // ms, over the latency ops
	n          int     // latency samples behind p50 and p99
	cpuPerOp   float64 // daemon CPU µs per completed operation
}

// summarize computes a window's figures from its operations, its length
// in seconds and the daemon CPU seconds it used. lax admits tails with
// too few samples beyond them (smoke runs).
func summarize(t *tally, secs, cpu float64, latOps []string, lax bool) (summary, error) {
	var units, ops float64
	for _, r := range t.recs {
		units += r.units
		if !math.IsInf(r.ms, 1) {
			ops++
		}
	}
	sum := summary{throughput: units / secs, cpuPerOp: cpu * 1e6 / max(ops, 1)}
	lat := t.of(latOps...)
	sum.n = len(lat)
	var err error
	if sum.p50, err = lat.quantile(0.50, lax); err != nil {
		return sum, err
	}
	sum.p99, err = lat.quantile(0.99, lax)
	return sum, err
}
