// Command ldpbench is the end-to-end benchmark of the ldpjoind service.
// It starts the real ldpjoind binary on a local data directory and
// drives one of three workloads over loopback TCP, from this one
// process, over at most two connections:
//
//	ingest  durable gateway traffic: small report batches, fsync per request
//	bulk    the paper's pipeline in rounds: huge streams, advance, finalize, first answers
//	query   read-only analyst traffic on finalized columns at the daemon defaults
//
// Every answer is checked (see each workload's file). The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are the run record and the
// workload's own named metrics with their units.
//
// With --trace 1 the run replays the same seeded inputs inside this
// process instead — through an in-process service.Server on loopback,
// with half the requests traced, then through each layer's public
// functions — and reports per-layer metrics and the tracing overhead.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash ldpbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//	bash ldpbench/run.sh --workload query --seed 1 --seconds 10 --smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// env is one run's settings.
type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	daemon   string // ldpjoind binary
	work     string // this run's scratch directory
}

// restarts is how many times a run starts the server on its set-up
// state; setup_s is the median. All but the last start are killed at
// once; the last one serves the timed window.
func (e *env) restarts() int {
	if e.smoke {
		return 2
	}
	return 7
}

// metric is one named measurement. n is the sample count behind a
// percentile or median (0 when it is not one).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// check is one output check; a run with a failed check is not correct.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is everything a run reports.
type outcome struct {
	attempted, failed int64
	checks            []check
	metrics           []metric // the JSON line: end-to-end, or per-layer when traced
	named             []metric // the workload's own named metrics, printed above it
	record            map[string]any
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

func main() {
	var e env
	var trace int
	flag.StringVar(&e.workload, "workload", "", "workload to run: ingest, bulk or query")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&e.seconds, "seconds", 10, "measurement length in seconds (ingest and bulk size their fixed work from it)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process replay and prints per-layer metrics")
	flag.BoolVar(&e.smoke, "smoke", false, "tiny sizes: every output check in seconds; figures are not comparable")
	flag.StringVar(&e.daemon, "daemon", "", "path to the ldpjoind binary")
	work := flag.String("work", "", "directory for data dirs, logs and spans (a fresh subdirectory per run)")
	flag.Parse()
	e.trace = trace == 1
	if err := runMain(&e, *work); err != nil {
		fmt.Fprintln(os.Stderr, "ldpbench:", err)
		os.Exit(1)
	}
}

func runMain(e *env, work string) error {
	if e.daemon == "" || work == "" {
		return fmt.Errorf("--daemon and --work are required")
	}
	if e.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, e.workload+"-")
	if err != nil {
		return err
	}
	// The run's data dirs are deleted and the deletion synced before it
	// exits, so their writeback does not land in the next run.
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()
	e.work = dir

	start := time.Now()
	var b bench
	switch e.workload {
	case "ingest":
		b, err = newIngest(e)
	case "bulk":
		b, err = newBulk(e)
	case "query":
		b, err = newQuery(e)
	default:
		return fmt.Errorf("unknown --workload %q (want ingest, bulk or query)", e.workload)
	}
	if err != nil {
		return fmt.Errorf("preparing %s: %w", e.workload, err)
	}
	fmt.Fprintf(os.Stderr, "ldpbench: %s inputs and pre-state ready in %.1fs\n", e.workload, time.Since(start).Seconds())
	var o *outcome
	if e.trace {
		o, err = runTraced(e, b)
	} else {
		o, err = runEndToEnd(e, b)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ldpbench: %s done in %.1fs\n", e.workload, time.Since(start).Seconds())
	if err := printOutcome(e, o); err != nil {
		return err
	}
	if !o.correct() {
		return fmt.Errorf("%s: output checks failed", e.workload)
	}
	return nil
}

// printOutcome writes the run record, the named metrics and the checks,
// then the result object as the last line.
func printOutcome(e *env, o *outcome) error {
	rec := runRecord(e)
	for k, v := range o.record {
		rec[k] = v
	}
	data, err := json.Marshal(map[string]any{"run_record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	for _, m := range o.named {
		line := fmt.Sprintf("%s %s %s %s", e.workload, m.name, fmtValue(m.value), m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		fmt.Println(line)
	}
	if o.attempted > 0 {
		fmt.Printf("%s failed_share %s of %d attempted\n", e.workload, fmtValue(float64(o.failed)/float64(o.attempted)), o.attempted)
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Printf("check %s %s %s\n", c.name, status, c.detail)
	}
	metrics := make(map[string]any, len(o.metrics))
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	data, err = json.Marshal(map[string]any{
		"correct": o.correct(), "attempted": max(o.attempted, 1), "failed": o.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// runRecord describes the machine and build a run measured.
func runRecord(e *env) map[string]any {
	return map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.seconds, "trace": e.trace, "smoke": e.smoke,
		"nproc": runtime.NumCPU(), "ldpbench_gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "go_version": runtime.Version(), "kernel": readTrim("/proc/sys/kernel/osrelease"),
		"datadir_fs": fsType(e.work), "git_commit": gitCommit(),
	}
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit reads HEAD of the repository the benchmark runs from, or
// reports "unknown" in a checkout without git metadata.
func gitCommit() string {
	head := readTrim(filepath.Join(".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return readTrim(filepath.Join(".git", ref))
	}
	return head
}

// percentileRecord lists the sample count behind each reported
// percentile metric.
func percentileRecord(ms []metric) map[string]int {
	out := make(map[string]int)
	for _, m := range ms {
		if m.n > 0 {
			out[m.name] = m.n
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
