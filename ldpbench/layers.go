package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/service"
	"ldpjoin/internal/store"
)

// fixture is the input of a workload's traced layer replay: streams of
// the workload's own request shapes and sketch size, so each layer's
// numbers say what that layer costs under that workload.
type fixture struct {
	p      core.Params
	joins  [][]byte // attr-0 KindJoin streams, as the workload posts them
	matrix []byte   // a KindMatrix stream over attrs (0,1)
	attr1  []byte   // an attr-1 KindJoin stream: the chain's right end
	plus   [2]*plusColumn
	domain uint64
	theta  float64
	fi     []uint64
	preDir string   // the pre-written data dir whose recovery setup_s times
	chain  string   // ?path= of a chain the workload leaves finalized; "" builds one
	freq   []uint64 // frequency-lookup values
}

// probeFixture completes a fixture for a workload that posts only join
// streams (ingest): the matrix, attr-1 and plus columns it lacks are
// generated at its own sketch size, shaped like the query workload's
// set-up streams (n reports each, domain 4096, θ = 0.01).
func probeFixture(e *env, p core.Params, joins [][]byte, preDir string, n int) (*fixture, error) {
	const domain, theta = 4096, 0.01
	f := newFamilies(p)
	rng := rand.New(rand.NewSource(e.seed + 15485863))
	values := func(i, n int) []uint64 { return dataset.Zipf(e.seed*104729+int64(i), n, domain, 1.1) }
	fx := &fixture{p: p, joins: joins, domain: domain, theta: theta, preDir: preDir, freq: freqValues(e.seed, 256, domain)}
	var err error
	if fx.matrix, err = encodeMatrix(p, f, values(0, n), values(1, n), rng, func(core.MatrixReport) {}); err != nil {
		return nil, err
	}
	if fx.attr1, err = encodeJoin(p, f.attr[1], values(2, n), rng, func(core.Report) {}); err != nil {
		return nil, err
	}
	for i := range fx.plus {
		if fx.plus[i], err = encodePlusSample(p, f, values(3+i, n/2), rng); err != nil {
			return nil, err
		}
	}
	fx.fi = frequentItems(fx.plus[0].refSample, domain, theta)
	for i := range fx.plus {
		if err := fx.plus[i].encodePhase2(p, f, values(5+i, n), fx.fi, rng); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// runTraced replays a workload inside this process and reports
// per-layer metrics. Order matters twice: recovery is measured before
// any replay writes to the pre-written dir, and the matrix-sized steps
// run one at a time so at most two K·M² matrices are live at once.
func runTraced(e *env, b bench) (*outcome, error) {
	cfg, fx := b.config(), b.fixture()
	tr := newTracer()
	o := &outcome{}
	lm := map[string]metric{}
	set := func(name string, v float64, unit string) { lm[name] = metric{name: name, value: v, unit: unit} }

	root := tr.begin("layer.replay", 0, 0)
	if err := measureRecover(e, fx, tr, root, set); err != nil {
		return nil, err
	}

	// The workload itself on an in-process server, half the requests of
	// each shape traced (see client); the latency gap between the two
	// halves is the tracing overhead.
	dir, err := b.setupDir(e, 100)
	if err != nil {
		return nil, err
	}
	syscall.Sync()
	s, _, err := startInProcess(cfg, dir, tr)
	if err != nil {
		return nil, err
	}
	c := newClient(s.base, conns(), tr)
	d, err := b.drive(e, s, c)
	if err == nil {
		o.attempted, o.failed = d.t.attempted, d.t.failed
		o.checks = append(o.checks, d.checks...)
		set("trace.overhead_ratio", c.tracingOverhead(), "ratio")
		err = serverCounters(c, d, set)
	}
	if err == nil {
		err = handlerReplay(s.srv, fx, tr, root, set, o)
	}
	s.stop()
	runtime.GC()
	if err != nil {
		return nil, err
	}
	set("service.http_us", httpOverhead(tr.snapshot()), "us")
	runtime.GC()

	if err := layerReplay(e, fx, tr, root, set, o); err != nil {
		return nil, err
	}
	tr.end(root)
	if err := tr.write(filepath.Join(e.work, "..", "spans-"+e.workload+".json")); err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(lm) {
		o.metrics = append(o.metrics, lm[name])
	}
	o.named = o.metrics
	o.record = map[string]any{"connections": conns(), "daemon_gomaxprocs": runtime.GOMAXPROCS(0), "spans": len(tr.snapshot())}
	return o, nil
}

// measureRecover times store.Open + Store.Recover on a copy of the
// pre-written dir, with a replayer that keeps nothing: the store's own
// read and decode cost.
func measureRecover(e *env, fx *fixture, tr *tracer, root int, set func(string, float64, string)) error {
	dir := filepath.Join(e.work, "recover")
	if err := copyDir(fx.preDir, dir); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	id := tr.begin("store.recover", root, 0)
	st, err := store.Open(dir, fx.p, hashSeed, store.Options{NoSync: true})
	if err == nil {
		_, err = st.Recover(discardReplayer{})
		st.Close()
	}
	tr.end(id)
	if err != nil {
		return err
	}
	sp := tr.snapshot()[id-1]
	set("store.recover_mb_per_s", float64(size)/(1<<20)/(float64(sp.End-sp.Start)/1e9), "MiB/s")
	return nil
}

// serverCounters reads the exact counts of the traced server.
func serverCounters(c *client, d *driveResult, set func(string, float64, string)) error {
	var st struct {
		cacheStats
		Durability struct {
			WALBytes              float64 `json:"walBytes"`
			BackgroundCheckpoints float64 `json:"backgroundCheckpoints"`
		} `json:"durability"`
	}
	if err := getJSON(c, "/v1/stats", &st); err != nil {
		return err
	}
	q := st.QueryCache
	set("service.cache_hit_ratio", float64(q.Hits)/float64(max(q.Hits+q.Misses, 1)), "ratio")
	set("service.cache_evictions", float64(q.Evictions), "count")
	set("store.wal_bytes_per_report", st.Durability.WALBytes/float64(max(d.reports, 1)), "bytes")
	set("store.checkpoints", st.Durability.BackgroundCheckpoints, "count")
	return nil
}

// httpOverhead is the median, over traced requests, of the client
// round trip minus the server's ServeHTTP span: loopback TCP, HTTP
// framing and the client, in microseconds.
func httpOverhead(spans []span) float64 {
	server := make(map[int]int64)
	for _, s := range spans {
		if s.Name == "service.ServeHTTP" {
			server[s.Parent] = s.End - s.Start
		}
	}
	var gaps []float64
	for _, s := range spans {
		if d, ok := server[s.ID]; ok {
			gaps = append(gaps, float64(s.End-s.Start-d)/1e3)
		}
	}
	return median(gaps)
}

// discardWriter is a ResponseWriter that keeps only the status, so a
// handler's timing excludes any recorder's buffering.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// handlerReplay times Server.Handler().ServeHTTP per op on the traced
// server, with a discarding ResponseWriter, and counts the allocations
// of the read ops.
func handlerReplay(srv *service.Server, fx *fixture, tr *tracer, root int, set func(string, float64, string), o *outcome) error {
	h := srv.Handler()
	failed := 0
	serve := func(op, method, target string, body []byte) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		w := &discardWriter{}
		id := tr.begin("handler."+op, root, 0)
		h.ServeHTTP(w, req)
		tr.end(id)
		if w.code != http.StatusOK && w.code != 0 {
			failed++
		}
	}
	for i, body := range fx.joins {
		serve("reports", "POST", "/v1/columns/lay_j"+strconv.Itoa(i%2)+"/reports", body)
	}
	chain := fx.chain
	if chain == "" {
		serve("reports", "POST", "/v1/columns/lay_m/reports?attr=0", fx.matrix)
		serve("reports", "POST", "/v1/columns/lay_c/reports?attr=1", fx.attr1)
		serve("finalize", "POST", "/v1/columns/lay_m/finalize", nil)
		serve("finalize", "POST", "/v1/columns/lay_c/finalize", nil)
		chain = "lay_j0,lay_m,lay_c"
	}
	for i, pc := range fx.plus {
		serve("reports", "POST", "/v1/columns/lay_p"+strconv.Itoa(i)+"/reports", pc.sample)
	}
	// The self-computing advance runs FrequentItems on the server; its
	// answer is checked against the set computed in-process.
	req := httptest.NewRequest("POST", fmt.Sprintf("/v1/columns/lay_p0/advance?domain=%d&theta=%v", fx.domain, fx.theta), nil)
	rec := httptest.NewRecorder()
	id := tr.begin("handler.advance", root, 0)
	h.ServeHTTP(rec, req)
	tr.end(id)
	var adv struct{ FI []uint64 }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &adv) != nil {
		failed++
	}
	fiBody, _ := json.Marshal(map[string]any{"domain": fx.domain, "theta": fx.theta, "fi": nonNil(fx.fi)})
	serve("advance", "POST", "/v1/columns/lay_p1/advance", fiBody)
	for i, pc := range fx.plus {
		serve("reports", "POST", "/v1/columns/lay_p"+strconv.Itoa(i)+"/reports", pc.low)
		serve("reports", "POST", "/v1/columns/lay_p"+strconv.Itoa(i)+"/reports", pc.high)
	}
	for _, col := range []string{"lay_j0", "lay_j1", "lay_p0", "lay_p1"} {
		serve("finalize", "POST", "/v1/columns/"+col+"/finalize", nil)
	}

	const reps = 200
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		serve("join", "GET", "/v1/join?left=lay_j0&right=lay_j1", nil)
		serve("chain", "GET", "/v1/join?path="+url.QueryEscape(chain), nil)
		serve("plus_join", "GET", "/v1/join?left=lay_p0&right=lay_p1", nil)
		serve("freq", "GET", "/v1/frequency?column=lay_j0&value="+strconv.FormatUint(fx.freq[i%len(fx.freq)], 10), nil)
		serve("stats", "GET", "/v1/stats", nil)
	}
	runtime.ReadMemStats(&m1)
	set("service.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/(5*reps), "count")
	set("service.bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(5*reps), "bytes")

	spans := tr.snapshot()
	for _, op := range []string{"reports", "join", "chain", "plus_join", "freq", "stats", "advance", "finalize"} {
		var ds []float64
		for _, s := range spans {
			if s.Name == "handler."+op {
				ds = append(ds, float64(s.End-s.Start)/1e3)
			}
		}
		set("service.handler_us."+op, median(ds), "us")
	}
	o.checks = append(o.checks,
		check{"trace.handlers", failed == 0, fmt.Sprintf("%d direct ServeHTTP calls failed", failed)},
		check{"trace.handler_fi", slices.Equal(adv.FI, fx.fi), fmt.Sprintf("server froze %d items, in-process %d", len(adv.FI), len(fx.fi))})
	return nil
}

// layerReplay calls each layer's public functions directly on the
// fixture, one span per call, and derives the per-layer metrics from
// the spans' self time.
func layerReplay(e *env, fx *fixture, tr *tracer, root int, set func(string, float64, string), o *outcome) error {
	p, f, mp := fx.p, newFamilies(fx.p), matrixParams(fx.p)
	units := map[string]float64{}
	call := func(name string, n float64, fn func() error) error {
		var err error
		tr.call(name, root, func() { err = fn() })
		units[name] += n
		return err
	}

	// protocol: decode every stream of the fixture.
	var joins [][][]core.Report
	for _, s := range fx.joins {
		var b [][]core.Report
		n, err := reportCount(s, protocol.ReportSize)
		if err != nil {
			return err
		}
		if err := call("protocol.decode", n, func() (err error) { b, err = decodeJoin(s, p); return }); err != nil {
			return err
		}
		joins = append(joins, b)
	}
	var matrix [][]core.MatrixReport
	n, err := reportCount(fx.matrix, protocol.MatrixReportSize)
	if err != nil {
		return err
	}
	if err := call("protocol.decode", n, func() (err error) { matrix, err = decodeMatrix(fx.matrix, mp); return }); err != nil {
		return err
	}
	plusBatches := make([][3][][]core.Report, 2)
	for i, pc := range fx.plus {
		for g, s := range [][]byte{pc.sample, pc.low, pc.high} {
			n, err := reportCount(s, protocol.ReportSize)
			if err != nil {
				return err
			}
			if err := call("protocol.decode", n, func() (err error) { plusBatches[i][g], err = decodePlus(s, p); return }); err != nil {
				return err
			}
		}
	}
	attr1, err := decodeJoin(fx.attr1, p)
	if err != nil {
		return err
	}

	// store: WAL appends with and without fsync.
	for _, mode := range []struct {
		span   string
		noSync bool
	}{{"store.append", false}, {"store.append_nosync", true}} {
		st, err := store.Open(filepath.Join(e.work, mode.span), p, hashSeed, store.Options{NoSync: mode.noSync})
		if err != nil {
			return err
		}
		for _, b := range joins {
			if err := call(mode.span, 1, func() error { return st.AppendReports("lay", 0, b) }); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
	}

	// ingest: enqueue (blocks while the queue is full) and fold.
	eng := ingest.NewEngine(p, f.attr[0], ingest.Options{})
	defer eng.Close()
	col := eng.NewColumnWithFamily(f.attr[0])
	for _, b := range joins {
		if err := call("ingest.enqueue", countReports(b), func() error { return col.EnqueueAll(b) }); err != nil {
			return err
		}
	}
	_ = call("ingest.settle", 0, func() error { col.Settle(); return nil })
	mcol := eng.NewMatrixColumn(mp, f.attr[0], f.attr[1])
	if err := call("ingest.enqueue", countReports(matrix), func() error { return mcol.EnqueueAll(matrix) }); err != nil {
		return err
	}
	_ = call("ingest.settle", 0, func() error { mcol.Settle(); return nil })
	pcol := eng.NewPlusColumn(f.sample, f.group)
	if err := pcol.EnqueueAll(protocol.PlusSample, plusBatches[0][0]); err != nil {
		return err
	}
	if _, err := pcol.Advance(fx.domain, fx.theta, fx.fi); err != nil {
		return err
	}
	if err := pcol.EnqueueAll(protocol.PlusLow, plusBatches[0][1]); err != nil {
		return err
	}
	if err := pcol.EnqueueAll(protocol.PlusHigh, plusBatches[0][2]); err != nil {
		return err
	}
	var ingestJoin *core.Sketch
	if err := call("ingest.finalize", 1, func() (err error) { ingestJoin, err = col.Finalize(); return }); err != nil {
		return err
	}
	if err := call("ingest.finalize", 1, func() error { _, err := mcol.Finalize(); return err }); err != nil {
		return err
	}
	if err := call("ingest.finalize", 1, func() error { _, err := pcol.Finalize(); return err }); err != nil {
		return err
	}
	mcol = nil
	runtime.GC()

	// core: finalize, frequent items, and the estimators.
	aggA, aggB := core.NewAggregator(p, f.attr[0]), core.NewAggregator(p, f.attr[0])
	for i, b := range joins {
		agg := aggA
		if i%2 == 1 && len(joins) > 1 {
			agg = aggB
		}
		for _, batch := range b {
			for _, r := range batch {
				agg.Add(r)
			}
		}
	}
	if len(joins) == 1 {
		aggB = cloneAgg(aggA)
	}
	whole := cloneAgg(aggA)
	whole.Merge(aggB)
	var skA, skB *core.Sketch
	_ = call("core.finalize", 1, func() error { skA = aggA.Finalize(); return nil })
	skB = aggB.Finalize()
	o.checks = append(o.checks, check{"trace.ingest_fold_matches_core", sameRows(ingestJoin, whole.Finalize()),
		"the ingest engine's folded join sketch against a serial core fold of the same reports"})
	ma := core.NewMatrixAggregator(mp, f.attr[0], f.attr[1])
	for _, batch := range matrix {
		for _, r := range batch {
			ma.Add(r)
		}
	}
	var msk *core.MatrixSketch
	_ = call("core.finalize", 1, func() error { msk = ma.Finalize(); return nil })
	ac := core.NewAggregator(p, f.attr[1])
	for _, batch := range attr1 {
		for _, r := range batch {
			ac.Add(r)
		}
	}
	csk := ac.Finalize()
	sample := cloneAgg(fx.plus[0].refSample).Finalize()
	var fi []uint64
	_ = call("core.frequent_items", 1, func() error {
		fi = sample.FrequentItems(fx.domain, fx.theta*sample.N(), false)
		return nil
	})
	o.checks = append(o.checks, check{"trace.frequent_items", slices.Equal(fi, fx.fi), "core.FrequentItems against the precomputed set"})
	var sink float64
	for i := 0; i < 100; i++ {
		_ = call("core.join", 1, func() error { sink += skA.JoinSize(skB); return nil })
	}
	states := [2]*core.PlusState{
		fx.plus[0].state(fx.domain, fx.theta, fx.fi), fx.plus[1].state(fx.domain, fx.theta, fx.fi),
	}
	for i := 0; i < 100; i++ {
		if err := call("core.plus_join", 1, func() error {
			est, err := core.EstimateJoinPlusColumns(states[0], states[1])
			sink += est.Estimate
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		_ = call("core.chain", 1, func() error { sink += core.ChainEstimate(skA, []*core.MatrixSketch{msk}, csk); return nil })
	}
	_ = call("core.freq", float64(len(fx.freq)), func() error {
		for _, v := range fx.freq {
			sink += skA.FrequencyMedian(v) + skA.Frequency(v)
		}
		return nil
	})

	// store: persisting finalized state, then protocol: decoding it back.
	st, err := store.Open(filepath.Join(e.work, "store.append"), p, hashSeed, store.Options{})
	if err != nil {
		return err
	}
	if _, err := st.Recover(discardReplayer{}); err != nil {
		st.Close()
		return err
	}
	snapJ, snapM := protocol.SnapshotOfSketch(skA), protocol.SnapshotOfMatrixSketch(msk)
	snapP := protocol.PlusSnapshotOfState(states[0])
	for _, fn := range []func() error{
		func() error { return st.Finalize("lay", 0, snapJ) },
		func() error { return st.Finalize("lay_m", 0, snapM) },
		func() error { return st.FinalizePlus("lay_p", 0, snapP) },
	} {
		if err := call("store.finalize_write", 1, fn); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	encJ, err := protocol.EncodeSnapshot(snapJ)
	if err != nil {
		return err
	}
	encP, err := protocol.EncodePlusSnapshot(snapP)
	if err != nil {
		return err
	}
	encM, err := protocol.EncodeSnapshot(snapM)
	if err != nil {
		return err
	}
	ma, msk, snapM = nil, nil, nil
	runtime.GC()
	for _, fn := range []func() error{
		func() error { _, err := protocol.DecodeSnapshot(encJ); return err },
		func() error { _, err := protocol.DecodePlusSnapshot(encP); return err },
		func() error { _, err := protocol.DecodeSnapshot(encM); return err },
	} {
		if err := call("protocol.snapshot_decode", 1, fn); err != nil {
			return err
		}
	}
	encM = nil
	runtime.GC()

	// kernel: one row's transform, the row-parallel apply against a
	// serial loop, and the dot product, all at width M.
	scale := 1 / math.Sqrt(float64(p.M))
	rows := make([][]float64, p.K)
	for j := range rows {
		rows[j] = slices.Clone(skA.Row(j))
	}
	for i := 0; i < 200; i++ {
		_ = call("kernel.fwht", 1, func() error { kernel.FWHTScaled(rows[0], scale); return nil })
	}
	for i := 0; i < 50; i++ {
		_ = call("kernel.serial_rows", 1, func() error {
			for j := range rows {
				kernel.FWHTScaled(rows[j], scale)
			}
			return nil
		})
		_ = call("kernel.rowapply", 1, func() error {
			kernel.RowApply(len(rows), func(j int) { kernel.FWHTScaled(rows[j], scale) })
			return nil
		})
	}
	const dots = 1000
	for i := 0; i < 20; i++ {
		_ = call("kernel.dot", dots, func() error {
			for k := 0; k < dots; k++ {
				sink += kernel.Dot(rows[0], rows[1%len(rows)])
			}
			return nil
		})
	}
	if math.IsNaN(sink) {
		o.checks = append(o.checks, check{"trace.estimates_finite", false, "an estimate was NaN"})
	}

	self := selfByName(tr.snapshot())
	perUnit := func(name string) float64 { return float64(self[name].ns) / units[name] }
	perCall := func(name string) float64 { return float64(self[name].ns) / float64(self[name].count) }
	total := func(name string) float64 { return float64(self[name].ns) }
	set("protocol.decode_ns_per_report", perUnit("protocol.decode"), "ns")
	set("protocol.snapshot_decode_ms", total("protocol.snapshot_decode")/1e6, "ms")
	set("store.append_us", perCall("store.append")/1e3, "us")
	set("store.append_nosync_us", perCall("store.append_nosync")/1e3, "us")
	set("store.finalize_write_ms", total("store.finalize_write")/1e6, "ms")
	set("ingest.enqueue_wait_us", perCall("ingest.enqueue")/1e3, "us")
	set("ingest.fold_ns_per_report", (total("ingest.enqueue")+total("ingest.settle"))/units["ingest.enqueue"], "ns")
	set("ingest.finalize_ms", total("ingest.finalize")/1e6, "ms")
	set("core.finalize_ms", total("core.finalize")/1e6, "ms")
	set("core.frequent_items_ms", perCall("core.frequent_items")/1e6, "ms")
	set("core.join_us", perCall("core.join")/1e3, "us")
	set("core.plus_join_us", perCall("core.plus_join")/1e3, "us")
	set("core.chain_ms", perCall("core.chain")/1e6, "ms")
	set("core.freq_ns", perUnit("core.freq"), "ns")
	set("kernel.fwht_us_per_row", perCall("kernel.fwht")/1e3, "us")
	set("kernel.rowapply_speedup", total("kernel.serial_rows")/total("kernel.rowapply"), "ratio")
	set("kernel.dot_ns", perUnit("kernel.dot"), "ns")
	return nil
}

// reportCount is the number of fixed-size reports in an encoded stream.
func reportCount(stream []byte, size int) (float64, error) {
	const header = 24
	if len(stream) < header || (len(stream)-header)%size != 0 {
		return 0, fmt.Errorf("stream of %d bytes is not a header plus %d-byte reports", len(stream), size)
	}
	return float64((len(stream) - header) / size), nil
}

// countReports is the number of reports in a set of batches.
func countReports[T any](b [][]T) float64 {
	n := 0
	for _, batch := range b {
		n += len(batch)
	}
	return float64(n)
}

func decodeJoin(s []byte, p core.Params) ([][]core.Report, error) {
	br, err := protocol.NewBatchReader(bytes.NewReader(s), p)
	if err != nil {
		return nil, err
	}
	return drain(br.Next)
}

func decodeMatrix(s []byte, mp core.MatrixParams) ([][]core.MatrixReport, error) {
	br, err := protocol.NewMatrixBatchReader(bytes.NewReader(s), mp)
	if err != nil {
		return nil, err
	}
	return drain(br.Next)
}

func decodePlus(s []byte, p core.Params) ([][]core.Report, error) {
	r := bufio.NewReader(bytes.NewReader(s))
	h, err := protocol.ReadHeader(r)
	if err != nil {
		return nil, err
	}
	br, _, err := protocol.NewPlusBatchReaderFrom(r, h, p)
	if err != nil {
		return nil, err
	}
	return drain(br.Next)
}

func drain[T any](next func(int) ([]T, error)) ([][]T, error) {
	var out [][]T
	for {
		b, err := next(protocol.DefaultBatchSize)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
}

// sameRows reports whether two join sketches hold bit-identical cells.
func sameRows(a, b *core.Sketch) bool {
	if a.N() != b.N() || a.Params() != b.Params() {
		return false
	}
	for j := 0; j < a.Params().K; j++ {
		if !slices.Equal(a.Row(j), b.Row(j)) {
			return false
		}
	}
	return true
}

// discardReplayer accepts every recovered record and keeps nothing.
type discardReplayer struct{}

func (discardReplayer) RecoverFinalized(store.ColumnInfo, *protocol.Snapshot) error      { return nil }
func (discardReplayer) RecoverCheckpoint(store.ColumnInfo, *protocol.Snapshot) error     { return nil }
func (discardReplayer) RecoverReports(store.ColumnInfo, []core.Report) error             { return nil }
func (discardReplayer) RecoverMatrixReports(store.ColumnInfo, []core.MatrixReport) error { return nil }
func (discardReplayer) RecoverMerge(store.ColumnInfo, *protocol.Snapshot) error          { return nil }
func (discardReplayer) RecoverPlusFinalized(store.ColumnInfo, *protocol.PlusSnapshot) error {
	return nil
}
func (discardReplayer) RecoverPlusCheckpoint(store.ColumnInfo, *protocol.PlusSnapshot) error {
	return nil
}
func (discardReplayer) RecoverPlusReports(store.ColumnInfo, protocol.PlusGroup, []core.Report) error {
	return nil
}
func (discardReplayer) RecoverPlusAdvance(store.ColumnInfo, uint64, float64, []uint64) error {
	return nil
}
func (discardReplayer) RecoverPlusMerge(store.ColumnInfo, *protocol.PlusSnapshot) error { return nil }
