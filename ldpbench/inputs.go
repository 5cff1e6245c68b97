package main

import (
	"bytes"
	"math/rand"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// families are the hash families a gateway derives from the public
// seed, exactly as the server does: one per join attribute, plus the
// phase-1 sample and phase-2 group families of plus columns.
type families struct {
	attr          []*hashing.Family
	sample, group *hashing.Family
}

func newFamilies(p core.Params) families {
	f := families{
		sample: hashing.NewFamily(core.PlusSampleSeed(hashSeed), p.K, p.M),
		group:  hashing.NewFamily(core.PlusGroupSeed(hashSeed), p.K, p.M),
	}
	for a := 0; a < 2; a++ {
		f.attr = append(f.attr, hashing.NewFamily(hashing.AttributeSeed(hashSeed, a), p.K, p.M))
	}
	return f
}

func matrixParams(p core.Params) core.MatrixParams {
	return core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}
}

// encodeJoin perturbs values into a KindJoin stream and passes every
// report to sink — typically the Add of the column's in-process
// reference aggregator.
func encodeJoin(p core.Params, fam *hashing.Family, values []uint64, rng *rand.Rand, sink func(core.Report)) ([]byte, error) {
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, p)
	if err != nil {
		return nil, err
	}
	for _, v := range values {
		r := core.Perturb(v, p, fam, rng)
		sink(r)
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeMatrix perturbs tuples (a[i], b[i]) into a KindMatrix stream and
// passes every report to sink.
func encodeMatrix(p core.Params, f families, a, b []uint64, rng *rand.Rand, sink func(core.MatrixReport)) ([]byte, error) {
	mp := matrixParams(p)
	var buf bytes.Buffer
	w, err := protocol.NewMatrixReportWriter(&buf, mp)
	if err != nil {
		return nil, err
	}
	for i := range a {
		r := core.PerturbTuple(a[i], b[i], mp, f.attr[0], f.attr[1], rng)
		sink(r)
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// plusColumn holds the encoded streams of one two-phase plus column and
// its in-process reference aggregators.
type plusColumn struct {
	sample, low, high          []byte
	refSample, refLow, refHigh *core.Aggregator
}

// encodePlusSample encodes the phase-1 sample of a plus column.
func encodePlusSample(p core.Params, f families, values []uint64, rng *rand.Rand) (*plusColumn, error) {
	c := &plusColumn{
		refSample: core.NewAggregator(p, f.sample),
		refLow:    core.NewAggregator(p, f.group),
		refHigh:   core.NewAggregator(p, f.group),
	}
	var err error
	c.sample, err = encodePlusGroup(p, f.sample, protocol.PlusSample, values, nil, rng, c.refSample)
	return c, err
}

// encodePhase2 splits the phase-2 users evenly at random between the low
// and high groups and encodes each group with frequency-aware
// perturbation keyed by fi — the set the benchmark computed in-process
// before timing, so no encoding happens inside the timed window.
func (c *plusColumn) encodePhase2(p core.Params, f families, values, fi []uint64, rng *rand.Rand) error {
	var low, high []uint64
	for _, v := range values {
		if rng.Intn(2) == 0 {
			low = append(low, v)
		} else {
			high = append(high, v)
		}
	}
	set := core.NewFISet(fi)
	var err error
	if c.low, err = encodePlusGroup(p, f.group, protocol.PlusLow, low, set, rng, c.refLow); err != nil {
		return err
	}
	c.high, err = encodePlusGroup(p, f.group, protocol.PlusHigh, high, set, rng, c.refHigh)
	return err
}

func encodePlusGroup(p core.Params, fam *hashing.Family, g protocol.PlusGroup, values []uint64, fi core.FISet, rng *rand.Rand, ref *core.Aggregator) ([]byte, error) {
	var buf bytes.Buffer
	w, err := protocol.NewPlusReportWriter(&buf, p, g)
	if err != nil {
		return nil, err
	}
	mode := core.ModeLow
	if g == protocol.PlusHigh {
		mode = core.ModeHigh
	}
	for _, v := range values {
		var r core.Report
		if g == protocol.PlusSample {
			r = core.Perturb(v, p, fam, rng)
		} else {
			r = core.FAPPerturb(v, mode, fi, p, fam, rng)
		}
		ref.Add(r)
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// frequentItems is the FI set the server's self-computing advance
// freezes: the finalized phase-1 sample thresholded at θ·|S|.
func frequentItems(sample *core.Aggregator, domain uint64, theta float64) []uint64 {
	sk := cloneAgg(sample).Finalize()
	return sk.FrequentItems(domain, theta*sk.N(), false)
}

// state finalizes the reference into the PlusState the server holds
// after finalize.
func (c *plusColumn) state(domain uint64, theta float64, fi []uint64) *core.PlusState {
	return &core.PlusState{
		Sample: cloneAgg(c.refSample).Finalize(), Low: cloneAgg(c.refLow).Finalize(), High: cloneAgg(c.refHigh).Finalize(),
		Domain: domain, Theta: theta, FI: fi,
	}
}

// cloneAgg copies an aggregator so a reference can be finalized more
// than once.
func cloneAgg(a *core.Aggregator) *core.Aggregator {
	c := core.NewAggregator(a.Params(), a.Family())
	c.Merge(a)
	return c
}

// exactJoin is the true join size Σ_v |{a = v}|·|{b = v}|.
func exactJoin(a, b []uint64) float64 {
	counts := make(map[uint64]float64)
	for _, v := range a {
		counts[v]++
	}
	var s float64
	for _, v := range b {
		s += counts[v]
	}
	return s
}
