package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
)

// The query workload: read-only analyst traffic on finalized columns at
// the daemon defaults (K=18, M=1024).
//
// Why it exists: HTTP routing, query parsing, JSON encoding and the
// query cache do the work; store is idle and core runs only on cache
// misses. The per-query allocation floor and the cache-versus-memoize
// decision show here, and store and ingest changes must show nothing.
//
// Shape: conns() closed-loop connections for --seconds after a warm-up,
// each drawing from the weighted mix in queryMix: pair joins over every
// pair of four join columns, the four chains qN,qm,qc, the plus pair,
// frequency lookups, /v1/columns and /v1/stats. Pairs, chains and the
// plus pair repeat; frequency values come from a domain of 2³², far
// wider than the 4096-entry cache, so those keys do not repeat and keep
// evicting the others. An evicted chain costs about 20 ms to recompute
// against well under a millisecond for a hit, which is why the run
// reports the hit ratio and the eviction count.
//
// Layers it loads (per-layer metric → end-to-end metric it moves):
// service.handler_us.*, service.http_us, service.allocs_per_op,
// service.bytes_per_op → latency_p50_ms and server_cpu_us_per_op;
// service.cache_hit_ratio, service.cache_evictions, core.chain_ms →
// throughput_per_s and latency_p99_ms; core.freq_ns → latency_p50_ms;
// protocol.snapshot_decode_ms, store.recover_mb_per_s → setup_s
// (loading the finalized snapshots, the 144 MB matrix among them).
//
// Checks: every pair, chain and plus answer equals what the same daemon
// returned at set-up, and every frequency answer equals the in-process
// core estimate on the same reports.
type queryBench struct {
	cfg      serverConfig
	pristine string
	sketches []*core.Sketch // in-process finalized join columns, for frequency checks
	targets  []queryTarget  // repeating pair, chain and plus queries
	fx       *fixture
}

type queryTarget struct{ op, path string }

const (
	queryJoins  = 4
	queryDomain = 4096
)

func queryColumn(i int) string { return "q" + strconv.Itoa(i) }

func newQuery(e *env) (*queryBench, error) {
	p, n := core.Params{K: 18, M: 1024, Epsilon: 4}, 20000
	if e.smoke {
		p, n = core.Params{K: 9, M: 128, Epsilon: 4}, 2000
	}
	b := &queryBench{cfg: serverConfig{params: p}}
	f := newFamilies(p)
	rng := rand.New(rand.NewSource(e.seed))
	values := func(i, n int) []uint64 { return dataset.Zipf(e.seed*7919+int64(i), n, queryDomain, 1.1) }
	// posts is the set-up traffic, in order.
	type request struct {
		path string
		body []byte
	}
	var posts []request
	var joins [][]byte
	for i := 0; i < queryJoins; i++ {
		ref := core.NewAggregator(p, f.attr[0])
		body, err := encodeJoin(p, f.attr[0], values(i, n), rng, ref.Add)
		if err != nil {
			return nil, err
		}
		b.sketches = append(b.sketches, ref.Finalize())
		posts = append(posts, request{"/v1/columns/" + queryColumn(i) + "/reports", body})
		joins = append(joins, body)
	}
	matrix, err := encodeMatrix(p, f, values(10, n), values(11, n), rng, func(core.MatrixReport) {})
	if err != nil {
		return nil, err
	}
	attr1, err := encodeJoin(p, f.attr[1], values(12, n), rng, func(core.Report) {})
	if err != nil {
		return nil, err
	}
	posts = append(posts, request{"/v1/columns/qm/reports?attr=0", matrix}, request{"/v1/columns/qc/reports?attr=1", attr1})
	var plus [2]*plusColumn
	for i := range plus {
		if plus[i], err = encodePlusSample(p, f, values(20+i, n/2), rng); err != nil {
			return nil, err
		}
	}
	theta := 0.01
	fi := frequentItems(plus[0].refSample, queryDomain, theta)
	for i := range plus {
		if err := plus[i].encodePhase2(p, f, values(30+i, n), fi, rng); err != nil {
			return nil, err
		}
	}
	fiBody, _ := json.Marshal(map[string]any{"domain": queryDomain, "theta": theta, "fi": nonNil(fi)})
	posts = append(posts,
		request{"/v1/columns/qp0/reports", plus[0].sample},
		request{"/v1/columns/qp1/reports", plus[1].sample},
		request{"/v1/columns/qp0/advance?domain=" + strconv.Itoa(queryDomain) + "&theta=" + strconv.FormatFloat(theta, 'g', -1, 64), nil},
		request{"/v1/columns/qp1/advance", fiBody})
	for i := range plus {
		posts = append(posts,
			request{"/v1/columns/qp" + strconv.Itoa(i) + "/reports", plus[i].low},
			request{"/v1/columns/qp" + strconv.Itoa(i) + "/reports", plus[i].high})
	}
	for _, col := range []string{"q0", "q1", "q2", "q3", "qm", "qc", "qp0", "qp1"} {
		posts = append(posts, request{"/v1/columns/" + col + "/finalize", nil})
	}
	b.pristine, err = writePreState(e, b.cfg, "query-pre", func(c *client) error {
		for _, r := range posts {
			if _, err := c.must("POST", r.path, r.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < queryJoins; i++ {
		for j := i + 1; j < queryJoins; j++ {
			b.targets = append(b.targets, queryTarget{"join", "/v1/join?left=" + queryColumn(i) + "&right=" + queryColumn(j)})
		}
	}
	for i := 0; i < queryJoins; i++ {
		b.targets = append(b.targets, queryTarget{"chain", "/v1/join?path=" + url.QueryEscape(queryColumn(i)+",qm,qc")})
	}
	b.targets = append(b.targets, queryTarget{"plus_join", "/v1/join?left=qp0&right=qp1"})
	b.fx = &fixture{
		p: p, joins: joins, matrix: matrix, attr1: attr1, plus: plus, domain: queryDomain, theta: theta, fi: fi,
		preDir: b.pristine, chain: "q0,qm,qc", freq: freqValues(e.seed, 256, 1<<32),
	}
	return b, nil
}

func (b *queryBench) config() serverConfig { return b.cfg }
func (b *queryBench) fixture() *fixture    { return b.fx }

// setupDir is the pre-written dir itself: opening finalized columns
// writes nothing.
func (b *queryBench) setupDir(*env, int) (string, error) { return b.pristine, nil }

// queryOp is one weighted op of the mix.
type queryOp struct {
	name   string
	weight int
}

// queryMix is the default mix of `ldpjoin loadtest`
// (join=6,chain=2,freq=2,status=1,stats=1) plus the plus-pair join,
// which loadtest does not issue. plus_join takes chain's weight: like a
// chain it is a repeating multi-sketch estimate that the cache answers
// on a hit and recomputes in full after an eviction. The status slot
// lists /v1/columns instead of reading one column's status.
var queryMix = []queryOp{{"join", 6}, {"chain", 2}, {"plus_join", 2}, {"freq", 2}, {"columns", 1}, {"stats", 1}}

// freqAnswer is one frequency lookup, checked after the window.
type freqAnswer struct {
	col          int
	value        uint64
	mean, median float64
}

func (b *queryBench) drive(e *env, s *server, c *client) (*driveResult, error) {
	want := make(map[string]float64, len(b.targets))
	for _, q := range b.targets {
		body, err := c.must("GET", q.path, nil)
		if err != nil {
			return nil, err
		}
		v, ok := jsonNumber(body, "estimate")
		if !ok {
			return nil, fmt.Errorf("set-up answer to %s has no estimate: %s", q.path, body)
		}
		want[q.path] = v
	}
	warm := 500 * time.Millisecond
	if e.smoke {
		warm = 100 * time.Millisecond
	}
	b.loop(c, e.seed, warm, want)
	var st0 cacheStats
	if err := getJSON(c, "/v1/stats", &st0); err != nil {
		return nil, err
	}
	cpu0, err := cpuOf(s)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	t, answers, wrong := b.loop(c, e.seed+1, time.Duration(e.seconds)*time.Second, want)
	secs := time.Since(t0).Seconds()
	cpu1, err := cpuOf(s)
	if err != nil {
		return nil, err
	}
	var st1 cacheStats
	if err := getJSON(c, "/v1/stats", &st1); err != nil {
		return nil, err
	}
	freqWrong := 0
	for _, a := range answers {
		sk := b.sketches[a.col]
		if a.mean != sk.Frequency(a.value) || a.median != sk.FrequencyMedian(a.value) {
			freqWrong++
		}
	}
	hits, misses := st1.QueryCache.Hits-st0.QueryCache.Hits, st1.QueryCache.Misses-st0.QueryCache.Misses
	sum, err := summarize(t, secs, cpu1-cpu0, nil, e.smoke)
	if err != nil {
		return nil, err
	}
	return &driveResult{
		t: t, sum: sum,
		checks: []check{
			{"query.repeat_answers", wrong == 0, fmt.Sprintf("%d answers differ from the set-up answers", wrong)},
			{"query.frequency", freqWrong == 0, fmt.Sprintf("%d of %d frequency answers differ from core", freqWrong, len(answers))},
		},
		named: []metric{
			{"query_per_s", sum.throughput, "queries/s", 0},
			{"query_p50_us", sum.p50 * 1e3, "us", sum.n},
			{"query_p99_us", sum.p99 * 1e3, "us", sum.n},
			{"cache_hit_ratio", float64(hits) / float64(max(hits+misses, 1)), "ratio", 0},
			{"cache_evictions", float64(st1.QueryCache.Evictions - st0.QueryCache.Evictions), "count", 0},
		},
	}, nil
}

// cacheStats is the query-cache part of /v1/stats.
type cacheStats struct {
	QueryCache struct {
		Hits, Misses, Evictions int64
	} `json:"queryCache"`
}

// loop runs the mix on conns() closed-loop connections for d and returns
// the tally, the frequency answers, and how many repeating answers
// differed from want.
func (b *queryBench) loop(c *client, seed int64, d time.Duration, want map[string]float64) (*tally, []freqAnswer, int) {
	n := conns()
	tallies := make([]*tally, n)
	answers := make([][]freqAnswer, n)
	wrong := make([]int, n)
	total := 0
	for _, op := range queryMix {
		total += op.weight
	}
	deadline := time.Now().Add(d)
	_ = runParallel(n, func(w int) error {
		rng := rand.New(rand.NewSource(seed*31 + int64(w)))
		t, buf := new(tally), new(bytes.Buffer)
		tallies[w] = t
		for time.Now().Before(deadline) {
			pick := rng.Intn(total)
			op := queryMix[0].name
			for _, o := range queryMix {
				if pick < o.weight {
					op = o.name
					break
				}
				pick -= o.weight
			}
			var path string
			var fa freqAnswer
			switch op {
			case "join", "chain", "plus_join":
				path = b.target(op, rng)
			case "freq":
				fa = freqAnswer{col: rng.Intn(queryJoins), value: uint64(rng.Uint32())}
				path = "/v1/frequency?column=" + queryColumn(fa.col) + "&value=" + strconv.FormatUint(fa.value, 10)
			case "columns":
				path = "/v1/columns"
			default:
				path = "/v1/stats"
			}
			code, ms, err := c.do(op, "GET", path, nil, buf)
			ok := err == nil && code == 200
			t.add(op, ms, ok, 1)
			if !ok {
				continue
			}
			switch op {
			case "join", "chain", "plus_join":
				if v, found := jsonNumber(buf.Bytes(), "estimate"); !found || v != want[path] {
					wrong[w]++
				}
			case "freq":
				var okMean, okMed bool
				fa.mean, okMean = jsonNumber(buf.Bytes(), "estimate")
				fa.median, okMed = jsonNumber(buf.Bytes(), "estimateMedian")
				if !okMean || !okMed {
					wrong[w]++
				}
				answers[w] = append(answers[w], fa)
			}
		}
		return nil
	})
	t := new(tally)
	var all []freqAnswer
	bad := 0
	for w := range tallies {
		t.merge(tallies[w])
		all = append(all, answers[w]...)
		bad += wrong[w]
	}
	return t, all, bad
}

// target draws one of the repeating queries of kind op.
func (b *queryBench) target(op string, rng *rand.Rand) string {
	for {
		q := b.targets[rng.Intn(len(b.targets))]
		if q.op == op {
			return q.path
		}
	}
}

// jsonNumber extracts the number stored under key in a flat JSON object
// without decoding the rest, so checking every answer costs the load
// generator little.
func jsonNumber(body []byte, key string) (float64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key)+3:]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return v, err == nil
}
