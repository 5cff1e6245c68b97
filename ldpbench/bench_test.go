package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRankAndBeyondRule(t *testing.T) {
	sorted := make([]float64, 1010)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// ceil(0.99·1010) = 1000 → the 1000th value, with 10 samples after it.
	if v, ok := percentile(sorted, 0.99); v != 1000 || !ok {
		t.Fatalf("p99 of 1..1010 = %v, %v; want 1000, true", v, ok)
	}
	if v, ok := percentile(sorted[:999], 0.99); ok {
		t.Fatalf("p99 of 999 samples = %v has fewer than 10 beyond, want refused", v)
	}
	if v, ok := percentile(sorted[:3], 0.5); v != 2 || ok {
		t.Fatalf("p50 of 3 samples = %v, %v; want 2, false", v, ok)
	}
	if _, err := latencies(sorted[:100]).quantile(0.99, false); err == nil {
		t.Fatal("p99 of 100 samples accepted")
	}
	if v, err := latencies(sorted[:100]).quantile(0.99, true); err != nil || v != 99 {
		t.Fatalf("lax p99 of 100 samples = %v, %v; want 99", v, err)
	}
	failed := latencies{1, 2, 3, inf, inf}
	for i := 0; i < 30; i++ {
		failed = append(failed, inf)
	}
	if _, err := failed.quantile(0.5, false); err == nil {
		t.Fatal("a median that lands on failed requests was reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is a number")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times = %v, want %v", got, want)
		}
	}
	by := selfByName([]span{{ID: 1, Name: "a", End: 5}, {ID: 2, Name: "a", Start: 5, End: 7}})
	if by["a"].ns != 7 || by["a"].count != 2 {
		t.Fatalf("selfByName = %+v", by)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("round", 0, 0)
	tr.call("child", root, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].End < s[1].Start || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	nilTracer.end(0)
}

var sinkInt int

func TestParseProc(t *testing.T) {
	stat := "6576 (ld pj) (x)) S 6530 6576 6530 0 -1 4194304 79 0 0 0 1234 56 0 0 20 0 1 0 2336215 2703360 272\n"
	if s, err := parseStatCPU(stat); err != nil || s != 12.9 {
		t.Fatalf("utime+stime = %v, %v; want 12.9 s", s, err)
	}
	if _, err := parseStatCPU("6576 (ldpjoind) S 6530 6576\n"); err == nil {
		t.Fatal("truncated stat accepted")
	}
	// This test process's own CPU time is readable and grows.
	a, err := procCPUSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 1e7; x++ {
		sinkInt += x
	}
	if b, err := procCPUSeconds(os.Getpid()); err != nil || b <= a {
		t.Fatalf("cpu seconds %v then %v (%v)", a, b, err)
	}
	if rss, err := procPeakRSSMiB(os.Getpid()); err != nil || rss <= 0 {
		t.Fatalf("peak rss = %v, %v", rss, err)
	}
	status := "Name:\tldpjoind\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 51200 {
		t.Fatalf("VmHWM = %d, %v", kb, err)
	}
	if _, err := parseStatusKB("VmHWM: lots\n", "VmHWM"); err == nil {
		t.Fatal("malformed VmHWM accepted")
	}
}

func TestSummarizeCoversEveryOperation(t *testing.T) {
	// 2000 operations of 1..2000 ms, 20 of them failed, in a 4 s window
	// that used 2 s of daemon CPU: every one counts.
	tl := new(tally)
	for i := 1; i <= 2000; i++ {
		tl.add("op", float64(i), i%100 != 0, 1)
	}
	tl.add("other", 1e6, true, 0)
	sum, err := summarize(tl, 4, 2, []string{"op"}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Failed operations complete no units and sit at +Inf in the sample,
	// so the percentiles shift up by them.
	if tl.attempted != 2001 || tl.failed != 20 || sum.throughput != 1980.0/4 || sum.n != 2000 {
		t.Fatalf("summary = %+v (%d attempted, %d failed)", sum, tl.attempted, tl.failed)
	}
	if sum.p50 != 1010 || sum.p99 != 1999 || sum.cpuPerOp != 2e6/1981 {
		t.Fatalf("p50 %v p99 %v cpu/op %v; want 1010, 1999, %v", sum.p50, sum.p99, sum.cpuPerOp, 2e6/1981)
	}
	// A p99 that lands on failed requests is refused.
	tl = new(tally)
	for i := 0; i < 2000; i++ {
		tl.add("op", 1, i >= 1950, 1)
	}
	if _, err := summarize(tl, 1, 1, nil, false); err == nil {
		t.Fatal("a p99 over failed requests was reported")
	}
}

func TestTracingOverheadWeighsOpsByCount(t *testing.T) {
	c := newClient("http://127.0.0.1:1", 1, newTracer())
	// join: 4 requests at 1 ms untraced, 1.5 ms traced; finalize: 2 at
	// 100 ms and 101 ms; a lone advance has no untraced twin.
	c.split["join "] = &[2][]float64{{1, 1}, {1.5, 1.5}}
	c.split["finalize "] = &[2][]float64{{100}, {101}}
	c.split["advance "] = &[2][]float64{nil, {50}}
	want := (4*1.5+2*101)/(4*1.0+2*100) - 1
	if got := c.tracingOverhead(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("overhead = %v, want %v", got, want)
	}
	if a, b := shape("join", "/v1/join?left=q0&right=q3"), shape("join", "/v1/join?left=q1&right=q2"); a != b || a != "join /v/join?left=q&right=q" {
		t.Fatalf("shapes %q and %q", a, b)
	}
}

func TestJSONNumber(t *testing.T) {
	body := []byte(`{"cached":true,"estimate":-12.5e3,"estimateMedian":7}` + "\n")
	if v, ok := jsonNumber(body, "estimate"); !ok || v != -12500 {
		t.Fatalf("estimate = %v, %v", v, ok)
	}
	if v, ok := jsonNumber(body, "estimateMedian"); !ok || v != 7 {
		t.Fatalf("estimateMedian = %v, %v", v, ok)
	}
	if _, ok := jsonNumber(body, "missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestSplitStream(t *testing.T) {
	header := make([]byte, 24)
	header[0] = 'H'
	stream := append(header, make([]byte, 7*10)...)
	for i := 24; i < len(stream); i++ {
		stream[i] = byte(i)
	}
	parts := splitStream(stream, 7, 4)
	total := 0
	var joined []byte
	for _, p := range parts {
		if p[0] != 'H' || (len(p)-24)%7 != 0 {
			t.Fatalf("part without a header or with a torn report: %d bytes", len(p))
		}
		total += (len(p) - 24) / 7
		joined = append(joined, p[24:]...)
	}
	if total != 10 || string(joined) != string(stream[24:]) {
		t.Fatalf("parts hold %d reports, want the stream's 10 in order", total)
	}
}

// TestSmoke runs every workload, end to end and traced, at tiny sizes
// against a freshly built ldpjoind; every output check must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ldpjoind and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "ldpjoind")
	if out, err := exec.Command("go", "build", "-o", bin, "ldpjoin/cmd/ldpjoind").CombinedOutput(); err != nil {
		t.Fatalf("building ldpjoind: %v\n%s", err, out)
	}
	for _, w := range []string{"ingest", "bulk", "query"} {
		for _, trace := range []bool{false, true} {
			e := &env{workload: w, seed: 3, seconds: 1, trace: trace, smoke: true, daemon: bin}
			if err := runMain(e, t.TempDir()); err != nil {
				t.Errorf("%s (trace %v): %v", w, trace, err)
			}
		}
	}
}
