package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes fixes how much work each part of a run does. fullSizes is what the
// benchmark runs; tests use a tiny copy so every workload runs to its end
// in seconds.
type sizes struct {
	catalogIDs       []string // paper-quick experiments (nil: the whole catalog)
	catalogMinRounds int      // paper-quick rounds, at least; two for the determinism check
	setupReps        int      // set-ups per run; setup_s is their median (sims: DuT pairs built, at least simPairs)
	simPackets       int      // packets offered per arm per round (fwd-rss, chain-fdir)
	simPairs         int      // DuT pairs the timed rounds rotate over (at least 2)
	simPoolRounds    int      // rounds whose latencies are pooled for the p99 check
	kvsKeys          uint64   // daemon keyspace
	kvsRoundOps      int      // requests per connection per round
	kvsWarmRounds    int      // untimed rounds before the measured interval
	sweepKVSRounds   int      // rounds per daemon run in the layer sweep
	budgetPackets    int      // packets per arm for the packet layer budget
	probeAccesses    int      // accesses per core in the cpusim access probe
	probeOps         int      // requests in the kvs/wal probes
	probeReps        int      // repetitions of each set-up probe
}

var fullSizes = sizes{
	catalogMinRounds: 2,
	setupReps:        15,
	simPackets:       15000,
	simPairs:         3,
	simPoolRounds:    3,
	kvsKeys:          1 << 16,
	kvsRoundOps:      500,
	kvsWarmRounds:    4,
	sweepKVSRounds:   20,
	budgetPackets:    60000,
	probeAccesses:    40000,
	probeOps:         40000,
	probeReps:        5,
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// secondsOf converts durations to float seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timeIt returns how long fn took, and fn's error.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// probeRefSeconds is the reference host speed the end-to-end times are
// scaled to: the speed at which one hostProbe.sample loop takes 2 ms.
const probeRefSeconds = 0.002

// hostProbe measures how fast the host runs this process right now. The
// host this benchmark was written on drifts by up to a third over
// minutes and, in bursts, slowed the sims' rounds twofold; a fixed loop
// of four independent xorshift chains, timed between the workload's
// operations and never inside them, slows with it. The probe is the
// benchmark's own code, so no change to the program moves it, and the
// end-to-end times are scaled by it (see endToEnd). Of the probes tried
// (pointer chases over 4 MB and 64 MB, Go map lookups, sorting, this
// loop) it followed the sims best: over ten runs of each sim the spread
// of the round time fell from 0.37 and 0.23 raw to 0.12 and 0.09 scaled.
type hostProbe struct {
	times []float64 // seconds per sample
	sink  uint64
}

// sample times one run of the loop.
func (h *hostProbe) sample() {
	start := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 500000; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
	}
	h.times = append(h.times, time.Since(start).Seconds())
	h.sink += a ^ b ^ c ^ d
}

// scale turns a time measured in this run into the time at the reference
// host speed: probeRefSeconds over the median sample.
func (h *hostProbe) scale() float64 {
	if len(h.times) == 0 {
		h.sample()
	}
	return probeRefSeconds / median(append([]float64(nil), h.times...))
}

// endToEnd sets the time metrics every workload prints, scaled to the
// reference host speed, and notes the times as measured beside them:
// wall_s is the median round, ops_per_s a round's operations over it, and
// setup_s the median set-up.
func (o *outcome) endToEnd(h *hostProbe, roundTimes, setups []time.Duration, opsPerRound float64) {
	k := h.scale()
	wall, setup := median(secondsOf(roundTimes)), median(secondsOf(setups))
	o.set("wall_s", wall*k, "s")
	o.set("ops_per_s", opsPerRound/(wall*k), "1/s")
	o.set("setup_s", setup*k, "s")
	o.note("as measured: wall %.6f s, setup %.6f s; host probe median %.4f ms over %d samples (reference %.1f ms), times scaled by %.4f",
		wall, setup, 1000*probeRefSeconds/k, len(h.times), 1000*probeRefSeconds, k)
}

// subSeed derives an independent input seed for one part of a run, so
// each part's inputs depend only on the run seed and the part's label.
func subSeed(seed int64, label string, i int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, label, i)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	if v < 0 {
		v = -v
	}
	return v
}

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// runtimeSnap is the Go runtime's allocation and GC cost so far.
type runtimeSnap struct {
	allocBytes, mallocs, gcCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSnap{allocBytes: val(s[0].Value), mallocs: val(s[1].Value), gcCPU: val(s[2].Value)}
}

// setRuntime records the runtime cost between two snapshots, per round,
// under prefix (runtime.alloc_mb, runtime.mallocs, runtime.gc_cpu_s).
func (o *outcome) setRuntime(prefix string, before, after runtimeSnap, rounds int) {
	n := float64(rounds)
	o.set(prefix+"runtime.alloc_mb", (after.allocBytes-before.allocBytes)/n/(1<<20), "MB")
	o.set(prefix+"runtime.mallocs", (after.mallocs-before.mallocs)/n, "count")
	o.set(prefix+"runtime.gc_cpu_s", (after.gcCPU-before.gcCPU)/n, "s")
}

// printHost records the host and the code with every result, so figures
// from two hosts or two trees are never read as one series.
func printHost(e *env) {
	fmt.Fprintf(e.out, "# host cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(e.root), sourceDigest(e.root))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf asks git for the checkout's commit; a checkout without git
// history reports "none" and is identified by its source digest alone.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file of the program (cmd/ and
// internal/), in path order: two runs with equal digests ran the same code.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
