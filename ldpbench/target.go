package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/service"
	"ldpjoin/internal/store"
)

// hashSeed is the public hash seed every gateway shares with the
// server (the ldpjoind default). The workload seed shapes the data, not
// the deployment.
const hashSeed = 1

// serverConfig is one workload's ldpjoind configuration. The daemon
// receives it as flags; the traced replay passes the same values to
// service.NewWithOptions, so both serve the same program.
type serverConfig struct {
	params    core.Params
	ckptBytes int64 // background-checkpoint trigger; 0 = off
	noSync    bool  // set-up writers only, never a timed phase
}

func (c serverConfig) flags(addr, dir string) []string {
	f := []string{
		"-addr", addr, "-data", dir, "-seed", strconv.Itoa(hashSeed),
		"-k", strconv.Itoa(c.params.K), "-m", strconv.Itoa(c.params.M),
		"-eps", strconv.FormatFloat(c.params.Epsilon, 'g', -1, 64),
	}
	if c.ckptBytes > 0 {
		f = append(f, "-ckpt-bytes", strconv.FormatInt(c.ckptBytes, 10))
	}
	if c.noSync {
		f = append(f, "-wal-no-sync")
	}
	return f
}

func (c serverConfig) options(dir string) service.Options {
	return service.Options{DataDir: dir, Store: store.Options{NoSync: c.noSync, CheckpointBytes: c.ckptBytes}}
}

// server is a running ldpjoin service: an ldpjoind child process, or —
// in the traced replay — a service.Server in this process behind a
// loopback listener.
type server struct {
	base   string
	pid    int // daemon pid; 0 when in-process
	cmd    *exec.Cmd
	exited chan struct{}
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
}

var daemonSeq atomic.Int64

// startDaemon execs ldpjoind on dir and returns once /v1/healthz answers
// 200, with the seconds that took (exec included).
func startDaemon(e *env, cfg serverConfig, dir string) (*server, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(e.work, fmt.Sprintf("ldpjoind-%d.log", daemonSeq.Add(1)))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(e.daemon, cfg.flags(addr, dir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{base: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ldpjoind: %w", err)
	}
	s.pid = cmd.Process.Pid
	go func() { _ = cmd.Wait(); close(s.exited) }()
	if err := waitHealthy(s.base, s.exited); err != nil {
		s.stop()
		log, _ := os.ReadFile(logPath)
		return nil, 0, fmt.Errorf("ldpjoind on %s: %w\n%s", dir, err, log)
	}
	return s, time.Since(start).Seconds(), nil
}

// startInProcess opens a service.Server on dir, serves it on loopback —
// through the span middleware when tr is set — and returns once
// /v1/healthz answers, with the seconds that took.
func startInProcess(cfg serverConfig, dir string, tr *tracer) (*server, float64, error) {
	start := time.Now()
	srv, err := service.NewWithOptions(cfg.params, hashSeed, cfg.options(dir))
	if err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = spanMiddleware(tr, h)
	}
	s := &server{base: "http://" + l.Addr().String(), srv: srv, hs: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() { _ = s.hs.Serve(l); close(s.served) }()
	if err := waitHealthy(s.base, s.served); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

// stop ends the server without a graceful shutdown — the daemon is
// SIGKILLed, so nothing is checkpointed — and waits until it is gone.
func (s *server) stop() {
	if s.cmd != nil {
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
		<-s.exited
		return
	}
	_ = s.hs.Close()
	<-s.served
	s.srv.Close()
}

// cpuOf reads a daemon's CPU seconds; an in-process server reports 0.
func cpuOf(s *server) (float64, error) {
	if s.pid == 0 {
		return 0, nil
	}
	return procCPUSeconds(s.pid)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls /v1/healthz every millisecond until it answers 200,
// the server exits, or a minute passes.
func waitHealthy(base string, exited <-chan struct{}) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("server exited before becoming healthy")
		default:
		}
		resp, err := hc.Get(base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not healthy within a minute")
}

// Request headers that carry a client span's identity to the server-side
// span middleware of the traced replay.
const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

// spanMiddleware records a service.ServeHTTP span for each traced
// request: a child of the client round-trip span named in its headers.
// Untraced requests pass straight through.
func spanMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(headerSpan)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		parent, _ := strconv.Atoi(h)
		id := tr.begin("service.ServeHTTP", parent, req)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// client issues the benchmark's HTTP requests over at most conns
// keep-alive connections. With a tracer it traces half the requests of
// each shape — a client span per round trip, its identity stamped on
// the request for the server's span — and keeps the latencies of the
// traced and the untraced requests apart, so one pass measures both
// under the same host conditions.
//
// A request's shape is its op and its path with the digits taken out,
// so requests that differ only in a column number or a looked-up value
// compare with each other. The requests of a shape are traced in pairs
// — two untraced, two traced — so inputs that alternate, like the bulk
// workload's two round inputs, fall on both sides equally.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	reqs atomic.Int64

	mu    sync.Mutex
	seen  map[string]int           // requests per shape so far
	split map[string]*[2][]float64 // per shape: untraced, traced latencies (ms)
}

// shape is a request's op and its path without digits.
func shape(op, path string) string {
	return op + " " + strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return -1
		}
		return r
	}, path)
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{base: base, tr: tr, seen: map[string]int{}, split: map[string]*[2][]float64{}, hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		},
	}}
}

// do sends one request and reads the whole response into buf. It
// returns the status and the latency from sending to the last response
// byte, in milliseconds; for a traced request the latency also covers
// opening and closing its client span.
func (c *client) do(op, method, path string, body []byte, buf *bytes.Buffer) (int, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	traced, key := false, ""
	if c.tr != nil {
		key = shape(op, path)
		c.mu.Lock()
		traced = c.seen[key]/2%2 == 1
		c.seen[key]++
		c.mu.Unlock()
	}
	buf.Reset()
	start := time.Now()
	var id int
	if traced {
		n := c.reqs.Add(1)
		id = c.tr.begin("client."+op, 0, n)
		req.Header.Set(headerReq, strconv.FormatInt(n, 10))
		req.Header.Set(headerSpan, strconv.Itoa(id))
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if traced {
		c.tr.end(id)
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if c.tr != nil && err == nil {
		c.mu.Lock()
		if c.split[key] == nil {
			c.split[key] = new([2][]float64)
		}
		k := 0
		if traced {
			k = 1
		}
		c.split[key][k] = append(c.split[key][k], ms)
		c.mu.Unlock()
	}
	if err != nil {
		return 0, ms, err
	}
	return resp.StatusCode, ms, nil
}

// tracingOverhead compares the traced and the untraced requests of a
// traced client: the sum over shapes of count × median latency, traced
// against untraced, minus one. Shapes seen on one side only are left
// out.
func (c *client) tracingOverhead() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var traced, untraced float64
	for _, l := range c.split {
		if len(l[0]) == 0 || len(l[1]) == 0 {
			continue
		}
		n := float64(len(l[0]) + len(l[1]))
		untraced += n * median(l[0])
		traced += n * median(l[1])
	}
	return traced/untraced - 1
}

// must sends one set-up request that has to succeed and returns its body.
func (c *client) must(method, path string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	code, _, err := c.do("setup", method, path, body, &buf)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, code, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}
