package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// bench is one workload: its seeded inputs are generated, and its
// pre-state data dir written, before any server it measures starts.
type bench interface {
	// config is the server configuration the workload measures.
	config() serverConfig
	// setupDir returns the data dir the i-th server start of a run
	// opens: a fresh copy of the pre-written state, or the state itself
	// where starting a server does not write to it.
	setupDir(e *env, i int) (string, error)
	// drive runs the timed traffic against s and checks every answer.
	drive(e *env, s *server, c *client) (*driveResult, error)
	// fixture holds the inputs of the traced layer replay.
	fixture() *fixture
}

// driveResult is what one workload's timed window produced.
type driveResult struct {
	t       *tally  // every operation in the timed window
	sum     summary // the end-to-end figures over the whole window
	reports int64   // reports posted, for WAL bytes per report
	checks  []check
	named   []metric // the workload's own named metrics
}

// conns is how many connections (and load threads) ldpbench uses: at
// most the number of CPUs, and two where there are more.
func conns() int { return min(2, runtime.NumCPU()) }

// runEndToEnd measures a workload against the real ldpjoind.
func runEndToEnd(e *env, b bench) (*outcome, error) {
	cfg := b.config()
	var setup []float64
	var s *server
	for i := 0; i < e.restarts(); i++ {
		dir, err := b.setupDir(e, i)
		if err != nil {
			return nil, err
		}
		syscall.Sync()
		srv, secs, err := startDaemon(e, cfg, dir)
		if err != nil {
			return nil, err
		}
		setup = append(setup, secs)
		if i < e.restarts()-1 {
			srv.stop()
		} else {
			s = srv
		}
	}
	defer s.stop()
	c := newClient(s.base, conns(), nil)
	var st struct {
		Workers int `json:"workers"`
	}
	if err := getJSON(c, "/v1/stats", &st); err != nil {
		return nil, err
	}
	d, err := b.drive(e, s, c)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMiB(s.pid)
	if err != nil {
		return nil, err
	}
	setupS := metric{"setup_s", median(setup), "s", len(setup)}
	cpu := metric{"server_cpu_us_per_op", d.sum.cpuPerOp, "us", 0}
	peak := metric{"server_peak_rss_mb", rss, "MiB", 0}
	o := &outcome{
		attempted: d.t.attempted, failed: d.t.failed, checks: d.checks,
		metrics: []metric{
			setupS,
			{"throughput_per_s", d.sum.throughput, "1/s", 0},
			{"latency_p50_ms", d.sum.p50, "ms", d.sum.n},
			{"latency_p99_ms", d.sum.p99, "ms", d.sum.n},
			cpu, peak,
		},
		named: append(append([]metric{setupS}, d.named...), cpu, peak),
	}
	o.record = map[string]any{
		"daemon_gomaxprocs": st.Workers, "connections": conns(),
		"percentile_samples": percentileRecord(append(o.metrics, o.named...)),
	}
	o.checks = append(o.checks, check{"no_failed_requests", d.t.failed == 0, fmt.Sprintf("%d of %d failed", d.t.failed, d.t.attempted)})
	return o, nil
}

// getJSON decodes a GET response that must answer 200.
func getJSON(c *client, path string, v any) error {
	body, err := c.must("GET", path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// copyDir copies a data dir's regular files into a fresh dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the total size of a directory's regular files.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// freshCopy copies the pristine pre-state into a new directory for the
// i-th server start, so no start sees what an earlier one wrote.
func freshCopy(e *env, pristine string, i int) (string, error) {
	dst := filepath.Join(e.work, fmt.Sprintf("start-%d", i))
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	return dst, copyDir(pristine, dst)
}

// writePreState runs a set-up writer daemon (fsync off — the record
// shapes are what matter, and every start syncs first) on a fresh
// dir, lets fill post through it, and SIGKILLs it, so the dir holds
// exactly what a crashed server leaves: no shutdown checkpoint.
func writePreState(e *env, cfg serverConfig, name string, fill func(c *client) error) (string, error) {
	dir := filepath.Join(e.work, name)
	cfg.noSync = true
	cfg.ckptBytes = 0
	s, _, err := startDaemon(e, cfg, dir)
	if err != nil {
		return "", err
	}
	defer s.stop()
	if err := fill(newClient(s.base, conns(), nil)); err != nil {
		return "", err
	}
	return dir, nil
}

// post sends one body and counts it in t as completing units when it
// succeeds, returning the response body and whether it succeeded.
func post(c *client, t *tally, op, path string, body []byte, units float64, buf *bytes.Buffer) ([]byte, bool) {
	code, ms, err := c.do(op, "POST", path, body, buf)
	ok := err == nil && code == 200
	t.add(op, ms, ok, units)
	return buf.Bytes(), ok
}
