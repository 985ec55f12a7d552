package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sliceaware/internal/zipf"
)

// kvsConns is the number of client connections, one per CPU of the
// reference host, each a closed loop (the next request goes out when the
// previous reply is in).
const kvsConns = 2

// kvsOp is one request: getv or setv of a key.
type kvsOp struct {
	key uint64
	set bool
}

// opStream is one connection's request stream: Zipf(0.99) popularity over
// the connection's half of the keyspace, 10% setv. The halves interleave
// (key/2 mod 2 picks the connection), so both connections reach both
// shards (key mod 2) and both see the hottest ranks.
type opStream struct {
	conn int
	z    *zipf.Zipf
	rng  *rand.Rand
}

func newOpStream(seed int64, conn int, keys uint64) (*opStream, error) {
	z, err := zipf.NewZipf(rand.New(rand.NewSource(subSeed(seed, "kvs-keys", conn))), keys/kvsConns, 0.99)
	if err != nil {
		return nil, err
	}
	return &opStream{conn: conn, z: z, rng: rand.New(rand.NewSource(subSeed(seed, "kvs-ops", conn)))}, nil
}

func (s *opStream) next() kvsOp {
	r := s.z.Next()
	return kvsOp{key: r/2*4 + uint64(2*s.conn) + r%2, set: s.rng.Float64() < 0.1}
}

// violation is a reply that breaks the protocol or the ledger: a program
// fault the run reports as a failed check, not an infrastructure error.
type violation struct{ error }

// ledger is a client's own record of every key's version. The keys of two
// connections never overlap, so each client's ledger is authoritative for
// its keys: a fresh daemon starts every key at version 0, and each
// acknowledged setv advances it by one.
type ledger map[uint64]uint64

// checkReply checks one reply line against the ledger and, for an
// acknowledged setv, advances the ledger. It returns the version the
// reply carried.
func (l ledger) checkReply(op kvsOp, shards uint64, line string) (uint64, error) {
	f := strings.Fields(line)
	want := l[op.key]
	if op.set {
		want++
	}
	var shardField, verField string
	switch {
	case op.set && len(f) == 4 && f[0] == "STORED":
		shardField, verField = f[1], f[3]
	case !op.set && len(f) == 4 && f[0] == "VER" && f[1] == keyName(op.key):
		shardField, verField = f[2], f[3]
	default:
		return 0, fmt.Errorf("key %d: unexpected reply %q", op.key, line)
	}
	shard, err1 := strconv.ParseUint(shardField, 10, 64)
	ver, err2 := strconv.ParseUint(verField, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("key %d: malformed reply %q", op.key, line)
	}
	if shard != op.key%shards {
		return ver, fmt.Errorf("key %d: served by shard %d, want %d", op.key, shard, op.key%shards)
	}
	if ver != want {
		return ver, fmt.Errorf("key %d: reply carries version %d, ledger expects %d", op.key, ver, want)
	}
	if op.set {
		l[op.key] = ver
	}
	return ver, nil
}

func keyName(k uint64) string { return "k" + strconv.FormatUint(k, 10) }

// refusalKind names a retryable refusal by its cause.
func refusalKind(line string) string {
	for _, k := range []string{"shed", "aqm", "queue full", "breaker", "timeout", "degraded", "draining"} {
		if strings.Contains(line, k) {
			return strings.ReplaceAll(k, " ", "_")
		}
	}
	return "other"
}

// client is one closed-loop connection.
type client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	shards uint64
	ops    *opStream
	ledger ledger

	latUs    []float64 // per acknowledged request, retries included
	refused  map[string]int64
	failed   int64     // requests that timed out in the daemon
	digest   hash.Hash // versions of the first measured round
	recordOn bool
	err      error // first error of the connection; a violation is a program fault
}

func dialClient(addr string, ops *opStream, shards uint64) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{
		conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn),
		shards: shards, ops: ops, ledger: ledger{}, refused: map[string]int64{},
		digest: sha256.New(),
	}, nil
}

// roundtrip sends one request and reads its one-line reply.
func (c *client) roundtrip(op kvsOp) (string, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if op.set {
		fmt.Fprintf(c.bw, "setv %s 0 0 1\r\nx\r\n", keyName(op.key))
	} else {
		fmt.Fprintf(c.bw, "getv %s\r\n", keyName(op.key))
	}
	if err := c.bw.Flush(); err != nil {
		return "", err
	}
	line, err := c.br.ReadString('\n')
	return strings.TrimRight(line, "\r\n"), err
}

// do runs one request to completion. A retryable refusal is counted by
// cause and retried after a millisecond: a refused request was not
// applied, so the ledger is unchanged. A request the daemon timed out on
// may or may not have been applied; it counts as failed and, for a setv,
// the ledger re-learns the key's version with a getv.
func (c *client) do(op kvsOp) error {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		line, err := c.roundtrip(op)
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "SERVER_ERROR") && strings.Contains(line, "(retryable)") {
			kind := refusalKind(line)
			c.refused[kind]++
			if kind == "timeout" {
				c.failed++
				if op.set {
					return c.resync(op.key)
				}
				return nil
			}
			if attempt >= 10000 {
				return fmt.Errorf("key %d: still refused after %d attempts: %s", op.key, attempt, line)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		ver, err := c.ledger.checkReply(op, c.shards, line)
		if err != nil {
			return violation{err}
		}
		c.latUs = append(c.latUs, float64(time.Since(start).Nanoseconds())/1e3)
		if c.recordOn {
			fmt.Fprintf(c.digest, "%d %t %d\n", op.key, op.set, ver)
		}
		return nil
	}
}

// resync reads a key's version back after an ambiguous setv.
func (c *client) resync(key uint64) error {
	for attempt := 0; attempt < 10000; attempt++ {
		line, err := c.roundtrip(kvsOp{key: key})
		if err != nil {
			return err
		}
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "VER" {
			v, err := strconv.ParseUint(f[3], 10, 64)
			if err != nil || v < c.ledger[key] || v > c.ledger[key]+1 {
				return violation{fmt.Errorf("key %d: resync reply %q, ledger has %d", key, line, c.ledger[key])}
			}
			c.ledger[key] = v
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("key %d: resync kept being refused", key)
}

// kvsRound runs n requests on every client concurrently and waits for all.
func kvsRound(clients []*client, n int) error {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < n && c.err == nil; i++ {
				if err := c.do(c.ops.next()); err != nil {
					c.err = err
				}
			}
		}(c)
	}
	wg.Wait()
	for _, c := range clients {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// daemon is one slicekvsd process started from the checkout's build.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	httpAddr string
	logPath  string
	exited   chan struct{}
	exitErr  error
}

// freePort reserves a loopback port number. The daemon binds it right
// after; a rare collision makes the start fail and it is retried.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon starts slicekvsd with two shards, slice-aware placement and
// the WAL on in a fresh directory, and waits until /readyz answers 200.
// It returns the daemon and the time from start to ready.
func startDaemon(e *env, name string, keys uint64, extra ...string) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, ready, err := tryStartDaemon(e, fmt.Sprintf("%s-%d", name, attempt), keys, extra)
		if err == nil {
			return d, ready, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStartDaemon(e *env, name string, keys uint64, extra []string) (*daemon, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(e.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", addr, "-http", httpAddr, "-shards", "2",
		"-keys", strconv.FormatUint(keys, 10), "-sliceaware", "-wal-dir", filepath.Join(dir, "wal")}, extra...)
	d := &daemon{cmd: exec.Command(e.daemon, args...), addr: addr, httpAddr: httpAddr,
		logPath: logf.Name(), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 60*time.Second {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("slicekvsd exited before ready (%v): %s", d.exitErr, d.logTail())
		default:
		}
		resp, err := hc.Get("http://" + httpAddr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("slicekvsd not ready after 60s: %s", d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// stop sends SIGTERM and waits for the drain. It returns an error unless
// the daemon exited 0 within the bound.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("slicekvsd did not exit within 30s of SIGTERM")
	}
	if d.exitErr != nil {
		return fmt.Errorf("slicekvsd drain: %v: %s", d.exitErr, d.logTail())
	}
	return nil
}

// kill ends the daemon without a drain (error paths only) and waits.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// scrape fetches the daemon's Prometheus text.
func (d *daemon) scrape() (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.httpAddr+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// promSum adds up every sample of family whose labels contain match.
func promSum(text, family, match string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || !strings.Contains(line[:sp], match) {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// kvsSession is the closed-loop clients of one daemon.
type kvsSession struct {
	clients []*client
}

func openSession(e *env, d *daemon) (*kvsSession, error) {
	s := &kvsSession{}
	for c := 0; c < kvsConns; c++ {
		ops, err := newOpStream(e.seed, c, e.sz.kvsKeys)
		if err != nil {
			return nil, err
		}
		cl, err := dialClient(d.addr, ops, 2)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (s *kvsSession) close() {
	for _, c := range s.clients {
		c.conn.Close()
	}
}

// latencies pools every client's per-request latencies.
func (s *kvsSession) latencies() []float64 {
	var out []float64
	for _, c := range s.clients {
		out = append(out, c.latUs...)
	}
	return out
}

func (s *kvsSession) resetLatencies() {
	for _, c := range s.clients {
		c.latUs = c.latUs[:0]
	}
}

func (s *kvsSession) refused() map[string]int64 {
	out := map[string]int64{}
	for _, c := range s.clients {
		for k, v := range c.refused {
			out[k] += v
		}
	}
	return out
}

func (s *kvsSession) failed() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.failed
	}
	return n
}

// kvsProbeSamples is how many host-probe samples kvs-serve takes before
// and after its daemons run.
const kvsProbeSamples = 25

// kvsRun is one daemon's life under the serving workload.
type kvsRun struct {
	kvsMeasure
	setups   []time.Duration // start-to-ready of every daemon started
	latUs    []float64       // per acknowledged request of the measured rounds
	refused  map[string]int64
	failed   int64
	rss      float64 // the measured daemon's VmHWM, MB
	drainErr error   // every daemon that did not drain and exit 0
	metrics  string  // the measured daemon's /metrics, read before SIGTERM
}

// serveKVS starts `starts` fresh daemons one after another (each started
// daemon but the last only measures set-up and is drained at once), puts
// the last under the closed-loop load for at least minRounds rounds and
// budget, reads its peak RSS and metrics, and drains it.
func serveKVS(e *env, name string, starts, minRounds int, budget time.Duration, extra ...string) (kvsRun, error) {
	var run kvsRun
	var d *daemon
	for i := 0; i < starts; i++ {
		if d != nil {
			run.drainErr = errors.Join(run.drainErr, d.stop())
		}
		var ready time.Duration
		var err error
		if d, ready, err = startDaemon(e, fmt.Sprintf("%s-%d", name, i), e.sz.kvsKeys, extra...); err != nil {
			return run, err
		}
		run.setups = append(run.setups, ready)
	}
	s, err := openSession(e, d)
	if err != nil {
		d.kill()
		return run, err
	}
	run.kvsMeasure, err = measureKVS(e, s, minRounds, budget)
	s.close()
	if err == nil {
		run.rss, err = vmHWM(strconv.Itoa(d.cmd.Process.Pid))
	}
	if err == nil {
		run.metrics, err = d.scrape()
	}
	if err != nil {
		d.kill()
		return run, err
	}
	run.drainErr = errors.Join(run.drainErr, d.stop())
	run.latUs, run.refused, run.failed = s.latencies(), s.refused(), s.failed()
	return run, nil
}

// runKVSServe is the serving workload: fresh slicekvsd daemons built from
// the checkout, closed-loop getv/setv load from two connections, every
// reply checked against the clients' ledgers, and a SIGTERM drain for
// every daemon.
//
// The host probe is sampled before the daemons start and after the last
// one drains, so it never competes with a daemon.
func runKVSServe(e *env) (outcome, error) {
	var o outcome
	var probe hostProbe
	for i := 0; i < kvsProbeSamples; i++ {
		probe.sample()
	}
	run, err := serveKVS(e, "serve", e.sz.setupReps, 1, time.Duration(e.seconds*float64(time.Second)))
	if err != nil {
		return o, err
	}
	for i := 0; i < kvsProbeSamples; i++ {
		probe.sample()
	}
	o.attempted = run.ops
	o.failed = run.failed
	o.checks = run.checks()
	o.digest = run.digest
	if len(run.roundTimes) == 0 {
		return o, nil // a violation in the warm-up rounds: nothing was measured
	}
	o.endToEnd(&probe, run.roundTimes, run.setups, float64(run.ops-run.failed)/float64(len(run.roundTimes)))
	o.set("peak_rss_mb", run.rss, "MB")
	o.note("kvs-serve: %d rounds x %d connections x %d requests; latency p50 %.1f us, p99 %.1f us, p99.9 %.1f us over %d samples; refusals retried %v",
		len(run.roundTimes), kvsConns, e.sz.kvsRoundOps, percentile(run.latUs, 50), percentile(run.latUs, 99),
		percentile(run.latUs, 99.9), len(run.latUs), run.refused)
	return o, nil
}

func (r *kvsRun) checks() []check {
	return []check{
		checkErr("kvs-serve/ledger-versions", r.violation),
		checkErr("kvs-serve/sigterm-drain-exit-0", r.drainErr),
	}
}

// kvsMeasure is the result of one measured interval against a daemon.
type kvsMeasure struct {
	violation  error // first reply that broke the protocol or a ledger
	ops        int64
	roundTimes []time.Duration
	elapsed    time.Duration
	digest     string
}

// measureKVS warms the connections with untimed rounds, records the first
// measured round's versions for the digest, then runs whole rounds until
// at least minRounds are done and the budget has passed. A ledger or
// protocol violation ends the measurement and is returned in violation;
// any other error ends it with the error.
func measureKVS(e *env, s *kvsSession, minRounds int, budget time.Duration) (kvsMeasure, error) {
	var m kvsMeasure
	for i := 0; i < e.sz.kvsWarmRounds; i++ {
		if err := kvsRound(s.clients, e.sz.kvsRoundOps); err != nil {
			return m, m.stopOn(err)
		}
	}
	s.resetLatencies()
	for _, c := range s.clients {
		c.recordOn = true
	}
	start := time.Now()
	for len(m.roundTimes) < minRounds || time.Since(start) < budget {
		d, err := timeIt(func() error { return kvsRound(s.clients, e.sz.kvsRoundOps) })
		m.ops += int64(kvsConns * e.sz.kvsRoundOps)
		if err != nil {
			return m, m.stopOn(err)
		}
		if len(m.roundTimes) == 0 {
			h := sha256.New()
			for _, c := range s.clients {
				h.Write(c.digest.Sum(nil))
				c.recordOn = false
			}
			m.digest = hex.EncodeToString(h.Sum(nil))
		}
		m.roundTimes = append(m.roundTimes, d)
	}
	m.elapsed = time.Since(start)
	return m, nil
}

// stopOn keeps a violation as the measurement's verdict and passes any
// other error on.
func (m *kvsMeasure) stopOn(err error) error {
	var v violation
	if errors.As(err, &v) {
		m.violation = err
		return nil
	}
	return err
}
