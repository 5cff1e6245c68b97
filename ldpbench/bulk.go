package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// The bulk workload: the paper's whole pipeline on fresh relations,
// repeated in rounds with fresh column names.
//
// Why it exists: the work goes into decoding, shard folding, the FWHT
// finalize (the K·M² matrix dominates), the frequent-item scan and cold
// estimates; big records amortize fsync and HTTP is a handful of
// requests. It is the opposite of ingest on the same write path — few
// huge requests instead of many tiny ones — and the only workload whose
// accuracy is compared with exact truth.
//
// Shape, per round, over one connection: Zipf-skewed values
// (internal/dataset) as streams of 12 000·--seconds reports, each posted
// as 16 requests of tens of thousands of reports, into two join columns on
// attr 0, a matrix column spanning attrs (0,1), a join column on attr
// 1, and the phase-1 samples of two plus columns; the server advances
// the first plus column with ?domain=&theta= (running FrequentItems) and
// the second with that frozen set, as a federation coordinator would;
// phase-2 low/high streams, pre-encoded from the set the benchmark
// computed in-process beforehand; a finalize of every column; then the
// first, uncached answers: a pair join, the chain A,AB,C and a plus-pair
// join. K=9, M=128 keeps a round's matrix at 1.2 MB: finalized columns
// cannot be deleted, so memory grows by that much every round, which is
// why a run is a fixed 60 rounds and --seconds scales the streams
// instead. Every run with the same --seconds does the same work.
//
// Layers it loads (per-layer metric → end-to-end metric it moves):
// protocol.decode_ns_per_report, ingest.fold_ns_per_report →
// throughput_per_s; core.finalize_ms, kernel.fwht_us_per_row,
// kernel.rowapply_speedup, ingest.finalize_ms, store.finalize_write_ms →
// latency_p99_ms (finalize_ms); core.frequent_items_ms → advance_ms;
// core.join_us, core.plus_join_us, core.chain_ms, kernel.dot_ns →
// cold_query_ms; store.recover_mb_per_s → setup_s (WAL replay of these
// large records).
//
// Checks: every answer equals the in-process core estimate on the same
// reports bit for bit, every first answer is uncached, the server's
// frequent-item set equals the precomputed one, and each finalize
// reports the posted count.
type bulkBench struct {
	cfg      serverConfig
	rounds   []*bulkRound
	pristine string
	fx       *fixture
}

// bulkRound is one round's pre-encoded streams and expected answers.
type bulkRound struct {
	j1, j2, m, c                  []byte
	p1, p2                        *plusColumn
	fi                            []uint64
	reports                       float64
	n                             map[string]float64 // reports per column role
	wantPair, wantChain, wantPlus float64
	truthPair, truthPlus          float64
}

const (
	bulkDomain = 4096
	bulkTheta  = 0.01
	bulkAlpha  = 1.1
)

func newBulk(e *env) (*bulkBench, error) {
	p := core.Params{K: 9, M: 128, Epsilon: 4}
	stream, distinct, rounds, preRounds := 12000*e.seconds, 2, 60, 4
	if e.smoke {
		stream, distinct, rounds, preRounds = 2000, 2, 2, 1
	}
	b := &bulkBench{cfg: serverConfig{params: p}}
	f := newFamilies(p)
	// Rounds cycle through a few distinct inputs, which bounds the
	// benchmark's own memory; every round still writes fresh columns, so the
	// server does the whole pipeline each time and no answer is cached.
	inputs := make([]*bulkRound, distinct)
	for r := range inputs {
		var err error
		if inputs[r], err = newBulkRound(p, f, e.seed, r, stream); err != nil {
			return nil, err
		}
	}
	for r := 0; r < rounds; r++ {
		b.rounds = append(b.rounds, inputs[r%distinct])
	}
	// The pre-state is whole rounds loaded up to, not including,
	// finalize: WAL records of every shape this workload writes.
	var err error
	b.pristine, err = writePreState(e, b.cfg, "bulk-pre", func(c *client) error {
		for i := 0; i < preRounds; i++ {
			for _, st := range inputs[i%distinct].steps(fmt.Sprintf("pre%d_", i)) {
				if st.op == "finalize" || st.op == "query" {
					continue
				}
				if _, err := c.must("POST", st.path, st.body); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r0 := b.rounds[0]
	b.fx = &fixture{
		p: p, joins: [][]byte{r0.j1, r0.j2}, matrix: r0.m, attr1: r0.c, plus: [2]*plusColumn{r0.p1, r0.p2},
		domain: bulkDomain, theta: bulkTheta, fi: r0.fi, preDir: b.pristine, chain: bulkName(0, "j1,") + bulkName(0, "m,") + bulkName(0, "c"),
		freq: freqValues(e.seed, 256, bulkDomain),
	}
	return b, nil
}

// newBulkRound generates and encodes round r and computes its expected
// answers in-process.
func newBulkRound(p core.Params, f families, seed int64, r, n int) (*bulkRound, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	values := func(i, n int) []uint64 { return dataset.Zipf(seed*7919+int64(r)*16+int64(i), n, bulkDomain, bulkAlpha) }
	a1, a2, ma, mb, c1 := values(0, n), values(1, n), values(2, n), values(3, n), values(4, n)
	s1, s2, q1, q2 := values(5, n), values(6, n), values(7, 2*n), values(8, 2*n)
	br := &bulkRound{n: make(map[string]float64)}
	refJ1, refJ2 := core.NewAggregator(p, f.attr[0]), core.NewAggregator(p, f.attr[0])
	refC, refM := core.NewAggregator(p, f.attr[1]), core.NewMatrixAggregator(matrixParams(p), f.attr[0], f.attr[1])
	var err error
	if br.j1, err = encodeJoin(p, f.attr[0], a1, rng, refJ1.Add); err != nil {
		return nil, err
	}
	if br.j2, err = encodeJoin(p, f.attr[0], a2, rng, refJ2.Add); err != nil {
		return nil, err
	}
	if br.m, err = encodeMatrix(p, f, ma, mb, rng, refM.Add); err != nil {
		return nil, err
	}
	if br.c, err = encodeJoin(p, f.attr[1], c1, rng, refC.Add); err != nil {
		return nil, err
	}
	if br.p1, err = encodePlusSample(p, f, s1, rng); err != nil {
		return nil, err
	}
	if br.p2, err = encodePlusSample(p, f, s2, rng); err != nil {
		return nil, err
	}
	br.fi = frequentItems(br.p1.refSample, bulkDomain, bulkTheta)
	if err := br.p1.encodePhase2(p, f, q1, br.fi, rng); err != nil {
		return nil, err
	}
	if err := br.p2.encodePhase2(p, f, q2, br.fi, rng); err != nil {
		return nil, err
	}
	j1, j2, c := refJ1.Finalize(), refJ2.Finalize(), refC.Finalize()
	br.wantPair = j1.JoinSize(j2)
	br.wantChain = core.ChainEstimate(j1, []*core.MatrixSketch{refM.Finalize()}, c)
	plus, err := core.EstimateJoinPlusColumns(br.p1.state(bulkDomain, bulkTheta, br.fi), br.p2.state(bulkDomain, bulkTheta, br.fi))
	if err != nil {
		return nil, err
	}
	br.wantPlus = plus.Estimate
	br.truthPair = exactJoin(a1, a2)
	br.truthPlus = exactJoin(append(s1, q1...), append(s2, q2...))
	br.n = map[string]float64{"j1": float64(n), "j2": float64(n), "m": float64(n), "c": float64(n), "p1": float64(3 * n), "p2": float64(3 * n)}
	return br, nil
}

func bulkName(r int, role string) string { return "b" + strconv.Itoa(r) + "_" + role }

// bulkParts is how many requests carry each column's stream: requests
// of tens of thousands of reports, enough of them that a fifth of the
// rounds holds the latency samples the tail metric needs.
const bulkParts = 16

// splitStream cuts an encoded stream into parts, each a whole stream
// with the original header, of as equal a report count as size allows.
func splitStream(stream []byte, size, parts int) [][]byte {
	const header = 24
	n := (len(stream) - header) / size
	var out [][]byte
	for i := 0; i < parts; i++ {
		lo, hi := header+i*n/parts*size, header+(i+1)*n/parts*size
		out = append(out, append(slices.Clip(stream[:header]), stream[lo:hi]...))
	}
	return out
}

// bulkStep is one request of a round.
type bulkStep struct {
	op, col, method, path string
	body                  []byte
	reports               float64
}

// steps lists a round's requests in order under column prefix pfx.
func (br *bulkRound) steps(pfx string) []bulkStep {
	var s []bulkStep
	load := func(col, query string, stream []byte, size int) {
		for _, part := range splitStream(stream, size, bulkParts) {
			s = append(s, bulkStep{op: "load", col: col, method: "POST", path: "/v1/columns/" + pfx + col + "/reports" + query,
				body: part, reports: float64((len(part) - 24) / size)})
		}
	}
	load("j1", "", br.j1, protocol.ReportSize)
	load("j2", "", br.j2, protocol.ReportSize)
	load("m", "?attr=0", br.m, protocol.MatrixReportSize)
	load("c", "?attr=1", br.c, protocol.ReportSize)
	load("p1", "", br.p1.sample, protocol.ReportSize)
	load("p2", "", br.p2.sample, protocol.ReportSize)
	theta := strconv.FormatFloat(bulkTheta, 'g', -1, 64)
	fi, _ := json.Marshal(map[string]any{"domain": bulkDomain, "theta": bulkTheta, "fi": nonNil(br.fi)})
	s = append(s,
		bulkStep{op: "advance", col: "p1", method: "POST", path: "/v1/columns/" + pfx + "p1/advance?domain=" + strconv.Itoa(bulkDomain) + "&theta=" + theta},
		bulkStep{op: "advance", col: "p2", method: "POST", path: "/v1/columns/" + pfx + "p2/advance", body: fi})
	load("p1", "", br.p1.low, protocol.ReportSize)
	load("p1", "", br.p1.high, protocol.ReportSize)
	load("p2", "", br.p2.low, protocol.ReportSize)
	load("p2", "", br.p2.high, protocol.ReportSize)
	for _, col := range []string{"j1", "j2", "m", "c", "p1", "p2"} {
		s = append(s, bulkStep{op: "finalize", col: col, method: "POST", path: "/v1/columns/" + pfx + col + "/finalize"})
	}
	q := func(col, query string) bulkStep {
		return bulkStep{op: "query", col: col, method: "GET", path: "/v1/join?" + query}
	}
	return append(s,
		q("pair", "left="+pfx+"j1&right="+pfx+"j2"),
		q("chain", "path="+url.QueryEscape(pfx+"j1,"+pfx+"m,"+pfx+"c")),
		q("plus", "left="+pfx+"p1&right="+pfx+"p2"))
}

func nonNil(fi []uint64) []uint64 {
	if fi == nil {
		return []uint64{}
	}
	return fi
}

func (b *bulkBench) config() serverConfig { return b.cfg }
func (b *bulkBench) fixture() *fixture    { return b.fx }

func (b *bulkBench) setupDir(e *env, i int) (string, error) { return freshCopy(e, b.pristine, i) }

func (b *bulkBench) drive(e *env, s *server, c *client) (*driveResult, error) {
	t, buf := new(tally), new(bytes.Buffer)
	var roundMs, advanceMs, finalizeMs, coldMs, joinErr, plusErr []float64
	bad := map[string]int{}
	cpu0, err := cpuOf(s)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for r, br := range b.rounds {
		steps := br.steps(bulkName(r, ""))
		start := time.Now()
		var adv, fin, cold float64
		for _, st := range steps {
			code, ms, err := c.do(st.op, st.method, st.path, st.body, buf)
			ok := err == nil && code == 200
			t.add(st.op, ms, ok, st.reports)
			if !ok {
				bad["status"]++
				continue
			}
			switch st.op {
			case "advance":
				adv += ms
				var resp struct{ FI []uint64 }
				if json.Unmarshal(buf.Bytes(), &resp) != nil || !slices.Equal(resp.FI, br.fi) {
					bad["fi"]++
				}
			case "finalize":
				fin += ms
				var resp struct{ Reports float64 }
				if json.Unmarshal(buf.Bytes(), &resp) != nil || resp.Reports != br.n[st.col] {
					bad["finalize_count"]++
				}
			case "query":
				cold += ms
				var resp struct {
					Estimate float64
					Cached   bool
				}
				if json.Unmarshal(buf.Bytes(), &resp) != nil || resp.Cached {
					bad["cold"]++
				}
				want := map[string]float64{"pair": br.wantPair, "chain": br.wantChain, "plus": br.wantPlus}[st.col]
				if resp.Estimate != want {
					bad[st.col]++
				}
				switch st.col {
				case "pair":
					joinErr = append(joinErr, math.Abs(resp.Estimate-br.truthPair)/br.truthPair)
				case "plus":
					plusErr = append(plusErr, math.Abs(resp.Estimate-br.truthPlus)/br.truthPlus)
				}
			}
		}
		roundMs = append(roundMs, time.Since(start).Seconds()*1e3)
		advanceMs, finalizeMs, coldMs = append(advanceMs, adv), append(finalizeMs, fin), append(coldMs, cold)
	}
	var checks []check
	for _, name := range []string{"pair", "chain", "plus", "fi", "cold", "finalize_count"} {
		checks = append(checks, check{"bulk." + name, bad[name] == 0, fmt.Sprintf("%d of %d rounds wrong", bad[name], len(b.rounds))})
	}
	secs := time.Since(t0).Seconds()
	cpu1, err := cpuOf(s)
	if err != nil {
		return nil, err
	}
	sum, err := summarize(t, secs, cpu1-cpu0, nil, e.smoke)
	if err != nil {
		return nil, err
	}
	var reports float64
	for _, r := range t.recs {
		reports += r.units
	}
	return &driveResult{
		t: t, sum: sum, reports: int64(reports), checks: checks,
		named: []metric{
			{"round_s", median(roundMs) / 1e3, "s", len(roundMs)},
			{"advance_ms", median(advanceMs), "ms", len(advanceMs)},
			{"finalize_ms", median(finalizeMs), "ms", len(finalizeMs)},
			{"cold_query_ms", median(coldMs), "ms", len(coldMs)},
			{"join_rel_error", mean(joinErr), "ratio", len(joinErr)},
			{"plus_rel_error", mean(plusErr), "ratio", len(plusErr)},
		},
	}, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// freqValues draws n frequency-lookup values from [0, domain).
func freqValues(seed int64, n int, domain uint64) []uint64 {
	rng := rand.New(rand.NewSource(seed + 104729))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Int63n(int64(domain)))
	}
	return out
}
