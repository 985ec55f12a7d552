package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"sliceaware/internal/experiments"
	"sliceaware/internal/netsim"
)

// tinySizes runs every part of every workload to its end in seconds.
var tinySizes = sizes{
	catalogIDs:       []string{"T1", "F4", "F5", "HR", "F13", "F14", "T3"},
	catalogMinRounds: 2,
	setupReps:        2,
	simPackets:       3000,
	simPairs:         2,
	simPoolRounds:    2,
	kvsKeys:          4096,
	kvsRoundOps:      40,
	kvsWarmRounds:    1,
	sweepKVSRounds:   2,
	budgetPackets:    3000,
	probeAccesses:    500,
	probeOps:         2000,
	probeReps:        1,
}

type benchmarkDoc struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
	Workloads []struct{ Name string } `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// tinyEnv builds the slicekvsd daemon once per test binary and returns a
// run environment at tiny sizes.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	dir := t.TempDir()
	daemon := filepath.Join(dir, "slicekvsd")
	cmd := exec.Command("go", "build", "-o", daemon, "sliceaware/cmd/slicekvsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build slicekvsd: %v\n%s", err, out)
	}
	return &env{seed: 3, seconds: 0.01, root: "..", daemon: daemon, work: dir, sz: tinySizes, out: io.Discard}
}

func failedChecks(cs []check) []string {
	var bad []string
	for _, c := range cs {
		if c.err != nil {
			bad = append(bad, c.name+": "+c.err.Error())
		}
	}
	return bad
}

func TestLedgerCatchesVersionOffByOne(t *testing.T) {
	l := ledger{5: 3}
	get, set := kvsOp{key: 5}, kvsOp{key: 5, set: true}
	if _, err := l.checkReply(get, 2, "VER k5 1 3"); err != nil {
		t.Fatalf("correct getv reply refused: %v", err)
	}
	if _, err := l.checkReply(get, 2, "VER k5 1 4"); err == nil {
		t.Fatal("getv reply one version ahead of the ledger was accepted")
	}
	if _, err := l.checkReply(set, 2, "STORED 1 17 5"); err == nil {
		t.Fatal("setv ack skipping a version was accepted")
	}
	if l[5] != 3 {
		t.Fatalf("a refused reply moved the ledger to %d", l[5])
	}
	if _, err := l.checkReply(set, 2, "STORED 1 17 4"); err != nil || l[5] != 4 {
		t.Fatalf("correct setv ack: err %v, ledger %d", err, l[5])
	}
	if _, err := l.checkReply(get, 2, "VER k5 0 4"); err == nil {
		t.Fatal("reply from the wrong shard was accepted")
	}
	if _, err := l.checkReply(get, 2, "SERVER_ERROR boom"); err == nil {
		t.Fatal("an error reply was accepted as a version")
	}
}

func TestConservationCatchesSumOffByOne(t *testing.T) {
	ok := netsim.Result{OfferedPkts: 100, Delivered: 90, Dropped: 7, Shed: 3}
	if err := conservation(ok); err != nil {
		t.Fatalf("balanced result refused: %v", err)
	}
	for _, bad := range []netsim.Result{
		{OfferedPkts: 100, Delivered: 91, Dropped: 7, Shed: 3},
		{OfferedPkts: 100, Delivered: 90, Dropped: 6, Shed: 3},
		{OfferedPkts: 101, Delivered: 90, Dropped: 7, Shed: 3},
	} {
		if conservation(bad) == nil {
			t.Errorf("unbalanced result %+v accepted", bad)
		}
	}
}

// TestArmsSwappedFailsP99Check runs both arms on the same packets and
// checks that the p99 comparison holds as labelled and breaks when the
// DPDK and CacheDirector arms are swapped.
func TestArmsSwappedFailsP99Check(t *testing.T) {
	pair, err := buildPair(fwdRSS)
	if err != nil {
		t.Fatal(err)
	}
	c := newSimChecker("fwd-rss", 2)
	for r := 0; r < 2; r++ {
		res, err := runRound(pair, 3, r, 15000)
		if err != nil {
			t.Fatal(err)
		}
		c.add(r, res)
	}
	if bad := failedChecks(c.checks()); len(bad) > 0 {
		t.Fatalf("checks failed on a correct run: %v", bad)
	}
	if checkArmP99("fwd-rss", c.pooled[1], c.pooled[0]).err == nil {
		t.Fatal("p99 check passed with the DPDK and CacheDirector arms swapped")
	}
}

func TestCatalogChecksCatchPlantedViolations(t *testing.T) {
	if checkF5([]float64{38, 51, 44, 57}).err != nil {
		t.Fatal("Fig 5 shape refused")
	}
	if checkF5([]float64{51, 38, 44, 57}).err == nil {
		t.Fatal("odd slice cheaper than its even neighbour accepted")
	}
	r := &catalogRound{t1: experiments.Table1()}
	if bad := failedChecks(checkCatalog(r)); len(bad) > 0 {
		t.Fatalf("Table 1 refused: %v", bad)
	}
	r.t1.Rows[1][3] = "513"
	if len(failedChecks(checkCatalog(r))) == 0 {
		t.Fatal("Table 1 with a wrong L2 set count accepted")
	}
}

// TestWorkloadsRunTiny runs every workload (kvs-serve too, which
// BENCHMARK.json does not declare) and the layer sweep to their end at
// tiny sizes and checks that they print exactly the metrics
// BENCHMARK.json declares.
func TestWorkloadsRunTiny(t *testing.T) {
	doc := readBenchmarkJSON(t)
	e := tinyEnv(t)
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json declares workload %q the benchmark does not run", w.Name)
		}
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o, err := workloads[name](e)
			if err != nil {
				t.Fatal(err)
			}
			if bad := failedChecks(o.checks); len(bad) > 0 {
				t.Fatalf("checks failed: %v", bad)
			}
			if o.attempted < 1 || o.failed != 0 || o.digest == "" {
				t.Fatalf("attempted %d failed %d digest %q", o.attempted, o.failed, o.digest)
			}
			if got := metricNames(o); !reflect.DeepEqual(got, e2e) {
				t.Fatalf("metrics %v, BENCHMARK.json end_to_end %v", got, e2e)
			}
			for n, m := range o.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
	t.Run("sweep", func(t *testing.T) {
		o, err := runSweep(e)
		if err != nil {
			t.Fatal(err)
		}
		if bad := failedChecks(o.checks); len(bad) > 0 {
			t.Fatalf("checks failed: %v", bad)
		}
		var layer []string
		for _, m := range doc.PerLayer {
			layer = append(layer, m.Name)
			if got, ok := o.metrics[m.Name]; ok && got.Unit != m.Unit {
				t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
		sort.Strings(layer)
		if got := metricNames(o); !reflect.DeepEqual(got, layer) {
			t.Fatalf("sweep metrics differ from BENCHMARK.json per_layer:\n got  %v\n want %v", got, layer)
		}
	})
}

func metricNames(o outcome) []string {
	var out []string
	for n := range o.metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {12.5, 1.5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// A host running the probe at half the reference speed halves every
// end-to-end time and doubles the rate.
func TestEndToEndScalesByProbe(t *testing.T) {
	h := hostProbe{times: []float64{8 * probeRefSeconds, 2 * probeRefSeconds, probeRefSeconds}}
	var o outcome
	o.endToEnd(&h, []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond},
		[]time.Duration{40 * time.Millisecond}, 50)
	for name, want := range map[string]float64{"wall_s": 0.1, "ops_per_s": 500, "setup_s": 0.02} {
		if got := o.metrics[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(h.times) != 3 || h.times[0] != 8*probeRefSeconds {
		t.Errorf("scale reordered or grew the samples: %v", h.times)
	}
}
