// Command perfbench is the repository's benchmark: four workloads that
// cover the paper-reproduction user (paper-quick), the simulated testbed
// on both sides of the batch/per-packet steering choice (fwd-rss,
// chain-fdir) and the serving daemon (kvs-serve, which BENCHMARK.json
// leaves out while the daemon's shedder makes it unsteady; README.md says
// why). Each run measures one workload for a fixed time, checks the program's outputs against
// properties computed apart from it, and prints one JSON result as the
// last line of standard output:
//
//	perfbench -workload fwd-rss -seed 1 -seconds 10 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 runs the per-layer
// sweep, which times calls into each layer's public functions from the
// outside (the program carries no tracing of its own for this) and
// prints the per-layer metrics. See README.md for what each metric means
// and which end-to-end metric it should move.
//
// The workload seed is an argument of the benchmark only: the program
// under test receives generated inputs (packets, keys, requests), never
// the seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run or one layer sweep hands back.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	checks            []check
	digest            string   // hex digest of the simulated outputs ("" in the sweep)
	notes             []string // report lines that are not metrics
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// merge folds a sub-outcome (one part of the layer sweep) into o.
func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for k, v := range p.metrics {
		o.set(k, v.Value, v.Unit)
	}
	o.checks = append(o.checks, p.checks...)
	o.notes = append(o.notes, p.notes...)
}

// check is one correctness property and whether the run upheld it.
type check struct {
	name string
	err  error // nil when the property held
}

// env is the run's configuration: inputs, budget and where to work.
type env struct {
	seed    int64
	seconds float64
	root    string // root of the checkout
	daemon  string // slicekvsd binary built from the checkout
	work    string // scratch directory for this run (removed at exit)
	sz      sizes
	out     io.Writer // report lines
}

// deadline returns when the measured interval that starts now must end.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*env) (outcome, error){
	"paper-quick": runPaperQuick,
	"fwd-rss":     func(e *env) (outcome, error) { return runSim(e, fwdRSS) },
	"chain-fdir":  func(e *env) (outcome, error) { return runSim(e, chainFDir) },
	"kvs-serve":   runKVSServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(mainCode()) }

// mainCode runs the benchmark and returns the process exit code, so the
// per-run scratch directory is removed on every path.
func mainCode() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured interval")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer sweep")
	root := flag.String("root", ".", "root of the checkout")
	daemon := flag.String("daemon", "", "slicekvsd binary (default <work>/slicekvsd)")
	work := flag.String("work", ".bench_build", "directory for per-run scratch files")
	regen := flag.Bool("regen-digest", false, fmt.Sprintf("rewrite the reference digests (seed %d) and exit", referenceSeed))
	flag.Parse()

	run, ok := workloads[*workload]
	switch {
	case *regen:
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *daemon == "" {
		*daemon = filepath.Join(*work, "slicekvsd")
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	e := &env{seed: *seed, seconds: *seconds, root: *root, daemon: *daemon, work: runDir, sz: fullSizes, out: os.Stdout}

	if *regen {
		if err := regenDigests(e, filepath.Join(*root, "perfbench", digestFile)); err != nil {
			return fail(err)
		}
		return 0
	}

	printHost(e)
	var out outcome
	if *trace == 1 {
		out, err = runSweep(e)
	} else {
		out, err = run(e)
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	if *trace == 0 {
		reportDigest(e, *workload, out.digest)
	}
	res := report(e.out, out)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints every check and metric as a readable line and returns the
// result. The run is correct only if every check held.
func report(w io.Writer, o outcome) result {
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	for _, c := range o.checks {
		if c.err != nil {
			res.Correct = false
			fmt.Fprintf(w, "# check FAILED %s: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "# check ok %s\n", c.name)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# metric %s = %g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	fmt.Fprintf(w, "# attempted %d failed %d\n", o.attempted, o.failed)
	if res.Attempted < 1 {
		res.Correct = false
		fmt.Fprintln(w, "# check FAILED attempted: no operation was attempted")
	}
	return res
}

// checkf records a property: ok, or the formatted reason it broke.
func checkf(name string, ok bool, format string, args ...any) check {
	if ok {
		return check{name: name}
	}
	return check{name: name, err: fmt.Errorf(format, args...)}
}

// checkErr records a property whose verdict is an error value.
func checkErr(name string, err error) check { return check{name: name, err: err} }

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}
