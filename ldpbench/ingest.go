package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// The ingest workload: gateways post durable report traffic.
//
// Why it exists: every request pays its own fsync in store and its own
// HTTP round trip in service, while core estimates and the kernel FWHT
// do almost nothing. WAL group commit, pooled decode buffers and the
// generic column pipeline show a gain or a regression here first.
//
// Shape: conns() closed-loop connections — a gateway waits for each ack
// — each posting a fixed, pre-encoded sequence of 64-report KindJoin
// batches (the loadtest default) into four join columns at the daemon
// defaults (K=18, M=1024), fsync on, background checkpointer on a 6 MiB
// bytes trigger. The sequences are fixed, so the WAL bytes are the same
// in every run, and a column's WAL grows by at most about 1 MiB per
// one-second checkpointer tick, so each crossing of the trigger is one
// checkpoint whatever the host's speed: the checkpoint count is the same
// in every run. The run ends with a finalize of every column, which
// drains the fold queue.
//
// Layers it loads (per-layer metric → end-to-end metric it moves):
// store.append_us, store.wal_bytes_per_report → latency_p50_ms and
// throughput_per_s; store.checkpoints, ingest.enqueue_wait_us →
// latency_p99_ms; service.handler_us.reports → latency_p50_ms;
// store.recover_mb_per_s → setup_s (WAL replay of these record shapes).
//
// Checks: each column's finalized snapshot is byte-identical to an
// in-process core.Aggregator fold of the pre-state and every acked
// batch, and its report count equals the acked reports.
type ingestBench struct {
	cfg      serverConfig
	pool     []ingestBatch
	pre      []ingestStep   // the pre-state, replayed at every start
	seqs     [][]ingestStep // one fixed sequence per connection
	pristine string
	fx       *fixture
}

type ingestBatch struct {
	body    []byte
	reports []core.Report
}

type ingestStep struct{ col, batch int }

const (
	ingestColumns      = 4
	ingestBatchReports = 64
	ingestDomain       = 1 << 16
)

func ingestColumn(i int) string { return "ing" + strconv.Itoa(i) }

func newIngest(e *env) (*ingestBench, error) {
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	pool, pre, perConn, probe := 512, 60000, 4000*e.seconds, 20000
	ckpt := int64(6 << 20)
	if e.smoke {
		p, pool, pre, perConn, probe, ckpt = core.Params{K: 9, M: 128, Epsilon: 4}, 32, 100, 100, 1000, 16<<10
	}
	b := &ingestBench{cfg: serverConfig{params: p, ckptBytes: ckpt}}
	f := newFamilies(p)
	rng := rand.New(rand.NewSource(e.seed))
	values := dataset.Zipf(e.seed, pool*ingestBatchReports, ingestDomain, 1.1)
	for i := 0; i < pool; i++ {
		var reports []core.Report
		body, err := encodeJoin(p, f.attr[0], values[i*ingestBatchReports:(i+1)*ingestBatchReports], rng,
			func(r core.Report) { reports = append(reports, r) })
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, ingestBatch{body: body, reports: reports})
	}
	steps := func(n int) []ingestStep {
		s := make([]ingestStep, n)
		for i := range s {
			s[i] = ingestStep{col: rng.Intn(ingestColumns), batch: rng.Intn(pool)}
		}
		return s
	}
	b.pre = steps(pre)
	for c := 0; c < conns(); c++ {
		b.seqs = append(b.seqs, steps(perConn))
	}
	var err error
	b.pristine, err = writePreState(e, b.cfg, "ingest-pre", func(c *client) error {
		return runParallel(conns(), func(w int) error {
			for i := w; i < len(b.pre); i += conns() {
				st := b.pre[i]
				if _, err := c.must("POST", "/v1/columns/"+ingestColumn(st.col)+"/reports", b.pool[st.batch].body); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	var joins [][]byte
	for i := 0; i < min(len(b.pool), 64); i++ {
		joins = append(joins, b.pool[i].body)
	}
	b.fx, err = probeFixture(e, p, joins, b.pristine, probe)
	return b, err
}

func (b *ingestBench) config() serverConfig { return b.cfg }
func (b *ingestBench) fixture() *fixture    { return b.fx }

func (b *ingestBench) setupDir(e *env, i int) (string, error) { return freshCopy(e, b.pristine, i) }

func (b *ingestBench) drive(e *env, s *server, c *client) (*driveResult, error) {
	n := len(b.seqs)
	tallies := make([]*tally, n)
	acked := make([][]ingestStep, n)
	// A fixed sequence runs to its end; the cap only keeps a pathological
	// run's length bounded.
	limit := time.Duration(4*e.seconds+30) * time.Second
	cpu0, err := cpuOf(s)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	_ = runParallel(n, func(w int) error {
		t, buf := new(tally), new(bytes.Buffer)
		tallies[w] = t
		for _, st := range b.seqs[w] {
			if time.Since(t0) > limit {
				break
			}
			if _, ok := post(c, t, "reports", "/v1/columns/"+ingestColumn(st.col)+"/reports", b.pool[st.batch].body, ingestBatchReports, buf); ok {
				acked[w] = append(acked[w], st)
			}
		}
		return nil
	})
	t := new(tally)
	for _, x := range tallies {
		t.merge(x)
	}
	finalized := make([]float64, ingestColumns)
	buf := new(bytes.Buffer)
	for i := range finalized {
		body, ok := post(c, t, "finalize", "/v1/columns/"+ingestColumn(i)+"/finalize", nil, 0, buf)
		var resp struct {
			Reports float64 `json:"reports"`
		}
		if ok && json.Unmarshal(body, &resp) == nil {
			finalized[i] = resp.Reports
		}
	}
	secs := time.Since(t0).Seconds()
	cpu1, err := cpuOf(s)
	if err != nil {
		return nil, err
	}

	want := make([]*core.Aggregator, ingestColumns)
	f := newFamilies(b.cfg.params)
	for i := range want {
		want[i] = core.NewAggregator(b.cfg.params, f.attr[0])
	}
	var ackedReports int64
	for _, steps := range append([][]ingestStep{b.pre}, acked...) {
		for _, st := range steps {
			for _, r := range b.pool[st.batch].reports {
				want[st.col].Add(r)
			}
		}
	}
	for _, steps := range acked {
		ackedReports += int64(len(steps) * ingestBatchReports)
	}
	var checks []check
	for i := 0; i < ingestColumns; i++ {
		checks = append(checks, check{"ingest.reports." + ingestColumn(i), finalized[i] == want[i].N(),
			fmt.Sprintf("finalized %g reports, acked (pre-state included) %g", finalized[i], want[i].N())})
		got, err := c.must("GET", "/v1/columns/"+ingestColumn(i)+"/snapshot", nil)
		if err != nil {
			return nil, err
		}
		wantSnap, err := protocol.EncodeSnapshot(protocol.SnapshotOfSketch(want[i].Finalize()))
		if err != nil {
			return nil, err
		}
		checks = append(checks, check{"ingest.snapshot." + ingestColumn(i), bytes.Equal(got, wantSnap),
			fmt.Sprintf("%d bytes served, %d bytes from the in-process fold", len(got), len(wantSnap))})
	}
	sum, err := summarize(t, secs, cpu1-cpu0, []string{"reports"}, e.smoke)
	if err != nil {
		return nil, err
	}
	return &driveResult{
		t: t, sum: sum, reports: ackedReports, checks: checks,
		named: []metric{
			{"ingest_reports_per_s", sum.throughput, "reports/s", 0},
			{"ingest_ack_p50_ms", sum.p50, "ms", sum.n},
			{"ingest_ack_p99_ms", sum.p99, "ms", sum.n},
		},
	}, nil
}

// runParallel runs fn(0..n-1) on n goroutines and returns the first error.
func runParallel(n int, fn func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
