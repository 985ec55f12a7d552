package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"sliceaware/internal/arch"
	"sliceaware/internal/chash"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/experiments"
)

// catalogRound keeps the results a paper-quick round is checked against.
type catalogRound struct {
	text     []byte                   // every table, as cmd/reproduce prints them minus timing lines
	perID    map[string]time.Duration // host time of each experiment
	order    []string                 // IDs in the order they ran
	t1       *experiments.Table
	f4       *experiments.HashRecoveryResult
	f5       *experiments.AccessTimeResult
	hr       *experiments.HeadroomResult
	f13, f14 *experiments.NFVLatencyResult
}

// catalogEntry runs one experiment and prints its tables the way
// cmd/reproduce does.
type catalogEntry struct {
	id  string
	run func(w io.Writer, r *catalogRound) error
}

// catalogEntries mirrors cmd/reproduce's dispatch, in catalog order, and
// prints byte for byte what reproduce -all prints minus its header and
// its "(ID in time)" lines.
func catalogEntries() []catalogEntry {
	q := experiments.Quick
	tab := func(t *experiments.Table, err error) func(io.Writer) error {
		return func(w io.Writer) error {
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}
	}
	simple := func(id string, fn func() (*experiments.Table, error)) catalogEntry {
		return catalogEntry{id, func(w io.Writer, _ *catalogRound) error { return tab(fn())(w) }}
	}
	return []catalogEntry{
		{"T1", func(w io.Writer, r *catalogRound) error { r.t1 = experiments.Table1(); r.t1.Fprint(w); return nil }},
		{"F4", func(w io.Writer, r *catalogRound) error {
			res, t, err := experiments.Figure4(q)
			r.f4 = res
			return tab(t, err)(w)
		}},
		{"F5", func(w io.Writer, r *catalogRound) error {
			res, t, err := experiments.Figure5(q)
			r.f5 = res
			return tab(t, err)(w)
		}},
		simple("F6", func() (*experiments.Table, error) { _, t, err := experiments.Figure6(q); return t, err }),
		simple("F7", func() (*experiments.Table, error) { _, t, err := experiments.Figure7(q); return t, err }),
		simple("F8", func() (*experiments.Table, error) { _, t, err := experiments.Figure8(q); return t, err }),
		{"HR", func(w io.Writer, r *catalogRound) error {
			res, t, err := experiments.Headroom(q)
			r.hr = res
			return tab(t, err)(w)
		}},
		simple("F12", func() (*experiments.Table, error) { _, t, err := experiments.Figure12(q); return t, err }),
		{"F13", func(w io.Writer, r *catalogRound) error {
			res, t, err := experiments.Figure13(q)
			r.f13 = res
			return tab(t, err)(w)
		}},
		{"F14", func(w io.Writer, r *catalogRound) error {
			res, t, err := experiments.Figure14(q)
			if err != nil {
				return err
			}
			r.f14 = res
			experiments.CDFTable(res, 12).Fprint(w)
			fmt.Fprintln(w, experiments.CDFPlot(res, 64, 64, 16))
			t.Fprint(w)
			return nil
		}},
		{"T3", func(w io.Writer, r *catalogRound) error {
			var err error
			if r.f13 == nil {
				if r.f13, _, err = experiments.Figure13(q); err != nil {
					return err
				}
			}
			if r.f14 == nil {
				if r.f14, _, err = experiments.Figure14(q); err != nil {
					return err
				}
			}
			_, t := experiments.Table3From(r.f13, r.f14)
			t.Fprint(w)
			return nil
		}},
		{"F15", func(w io.Writer, _ *catalogRound) error {
			res, t, err := experiments.Figure15(q)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.KneePlot(res, 64, 16))
			t.Fprint(w)
			return nil
		}},
		simple("F16", func() (*experiments.Table, error) { _, t, err := experiments.Figure16(q); return t, err }),
		simple("T4", func() (*experiments.Table, error) { _, t, err := experiments.Table4(); return t, err }),
		simple("F17", func() (*experiments.Table, error) { _, t, err := experiments.Figure17(q); return t, err }),
		simple("A-DDIO", func() (*experiments.Table, error) { _, t, err := experiments.AblationDDIOWays(q); return t, err }),
		simple("A-PLACE", func() (*experiments.Table, error) { _, t, err := experiments.AblationPlacement(q); return t, err }),
		simple("A-STEER", func() (*experiments.Table, error) { _, t, err := experiments.AblationSteering(q); return t, err }),
		simple("A-MULTI", func() (*experiments.Table, error) { _, t, err := experiments.AblationMultiSlice(q); return t, err }),
		simple("A-PF", func() (*experiments.Table, error) { _, t, err := experiments.AblationPrefetch(q); return t, err }),
		simple("A-RP", func() (*experiments.Table, error) { _, t, err := experiments.AblationReplacement(q); return t, err }),
		simple("S6", func() (*experiments.Table, error) { _, t, err := experiments.SkylakeCacheDirector(q); return t, err }),
		simple("S8V", func() (*experiments.Table, error) { _, t, err := experiments.LargeValueKVS(q); return t, err }),
		simple("S8M", func() (*experiments.Table, error) { _, t, err := experiments.HotMigration(q); return t, err }),
		simple("S9C", experiments.PageColoringDemo),
		simple("S7H", func() (*experiments.Table, error) { _, t, err := experiments.VMIsolation(q); return t, err }),
		simple("S8S", func() (*experiments.Table, error) { _, t, err := experiments.SharedDataPlacement(q); return t, err }),
		simple("S4V", func() (*experiments.Table, error) { _, t, err := experiments.OffsetTarget(q); return t, err }),
		simple("F-FAULTS", func() (*experiments.Table, error) { _, t, err := experiments.FigFaults(q); return t, err }),
		{"F-OVERLOAD", func(w io.Writer, _ *catalogRound) error {
			_, t, err := experiments.FigOverload(q)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return tab(experiments.OverloadBreakerStorm(q))(w)
		}},
		simple("F-TENANT", func() (*experiments.Table, error) { _, t, err := experiments.FigTenant(q); return t, err }),
	}
}

// selectedEntries returns the catalog entries a run executes, checking
// that the benchmark's dispatch covers exactly the program's catalog.
func selectedEntries(ids []string) ([]catalogEntry, error) {
	all := catalogEntries()
	cat := experiments.Catalog()
	if len(all) != len(cat) {
		return nil, fmt.Errorf("benchmark dispatch has %d experiments, catalog has %d", len(all), len(cat))
	}
	for i, c := range cat {
		if all[i].id != c.ID {
			return nil, fmt.Errorf("catalog position %d is %s, benchmark dispatch has %s", i, c.ID, all[i].id)
		}
	}
	if ids == nil {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []catalogEntry
	for _, en := range all {
		if want[en.id] {
			out = append(out, en)
		}
	}
	return out, nil
}

// runCatalog runs the selected experiments once, in catalog order, at
// quick scale with one job, as the research user's `reproduce -all` does.
// Each experiment starts on a collected heap, so its time and the peak RSS
// do not depend on when the previous experiment's garbage was collected.
// between, when not nil, runs untimed before each experiment.
func runCatalog(seed int64, entries []catalogEntry, between func() error) (*catalogRound, error) {
	experiments.SetSeed(seed)
	experiments.SetJobs(1)
	r := &catalogRound{perID: map[string]time.Duration{}}
	var buf bytes.Buffer
	for _, en := range entries {
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := en.run(&buf, r); err != nil {
			return nil, fmt.Errorf("%s: %w", en.id, err)
		}
		r.perID[en.id] = time.Since(start)
		r.order = append(r.order, en.id)
		buf.WriteByte('\n')
	}
	r.text = buf.Bytes()
	return r, nil
}

// machineSetup builds one machine of each simulated part — the set-up
// every experiment pays before its first access.
func machineSetup() error {
	for _, p := range []*arch.Profile{arch.HaswellE52667v3(), arch.SkylakeGold6134()} {
		if _, err := cpusim.NewMachine(p); err != nil {
			return err
		}
	}
	return nil
}

// runPaperQuick is the research user's task: the whole experiment
// catalog, checked against the paper's published properties. One
// operation is one experiment; whole catalog rounds repeat until the
// measured interval is over, at least twice so they can be compared byte
// for byte.
// The set-up samples are taken between experiments, spread over the whole
// run, so their median sees the same host as the rounds do.
func runPaperQuick(e *env) (outcome, error) {
	var o outcome
	entries, err := selectedEntries(e.sz.catalogIDs)
	if err != nil {
		return o, err
	}
	var setups []time.Duration
	var probe hostProbe
	between := func() error {
		runtime.GC()
		probe.sample()
		d, err := timeIt(machineSetup)
		setups = append(setups, d)
		return err
	}
	if err := between(); err != nil {
		return o, err
	}

	var rounds []*catalogRound
	var roundTimes []time.Duration
	end := e.deadline()
	for len(rounds) < e.sz.catalogMinRounds || time.Now().Before(end) {
		r, err := runCatalog(e.seed, entries, between)
		if err != nil {
			return o, err
		}
		var d time.Duration
		for _, t := range r.perID {
			d += t
		}
		rounds = append(rounds, r)
		roundTimes = append(roundTimes, d)
	}
	rss, err := vmHWM("self")
	if err != nil {
		return o, err
	}

	o.attempted = int64(len(rounds) * len(entries))
	o.endToEnd(&probe, roundTimes, setups, float64(len(entries)))
	o.set("peak_rss_mb", rss, "MB")
	o.note("paper-quick: %d rounds of %d experiments; %d set-up samples", len(rounds), len(entries), len(setups))

	o.checks = append(o.checks, checkCatalog(rounds[0])...)
	for i := 1; i < len(rounds); i++ {
		o.checks = append(o.checks, checkf(fmt.Sprintf("paper-quick/round-%d-byte-identical", i+1),
			bytes.Equal(rounds[0].text, rounds[i].text), "round %d tables differ from round 1 under the same seed", i+1))
	}
	sum := sha256.Sum256(rounds[0].text)
	o.digest = hex.EncodeToString(sum[:])
	return o, nil
}

// paperTable1 is the paper's Table 1: the Xeon E5-2667 v3 cache geometry.
var paperTable1 = [][]string{
	{"LLC-Slice", "2560 kB", "20", "2048", "16-6"},
	{"L2", "256 kB", "8", "512", "14-6"},
	{"L1", "32 kB", "8", "64", "11-6"},
}

// checkCatalog checks the properties the paper publishes for the
// experiments the round ran.
func checkCatalog(r *catalogRound) []check {
	var cs []check
	if r.t1 != nil {
		cs = append(cs, checkf("T1/paper-geometry", reflect.DeepEqual(r.t1.Rows, paperTable1),
			"rows %v, paper has %v", r.t1.Rows, paperTable1))
	}
	if r.f4 != nil {
		got, want := r.f4.Recovered.Hash.Matrix(), chash.Haswell8().Matrix()
		cs = append(cs, checkf("F4/recovered-matrix", reflect.DeepEqual(got, want),
			"polling-recovered matrix differs from the Haswell 8-slice hash"))
	}
	if r.f5 != nil {
		cs = append(cs, checkF5(r.f5.ReadCycles))
	}
	if r.hr != nil {
		s := r.hr.Summary
		cs = append(cs, checkf("HR/distribution", s.P50 == 256 && s.P95 == 512 && s.Max == 832 && r.hr.Misses == 0,
			"median %.0f p95 %.0f max %.0f unplaceable %d; want 256, 512, 832, 0", s.P50, s.P95, s.Max, r.hr.Misses))
	}
	for _, f := range []struct {
		id  string
		res *experiments.NFVLatencyResult
	}{{"F13", r.f13}, {"F14", r.f14}} {
		if f.res == nil {
			continue
		}
		base, cd := f.res.Summaries()
		cs = append(cs, checkf(f.id+"/cachedirector-p99", cd.P99 <= base.P99,
			"CacheDirector p99 %.1f ns above DPDK p99 %.1f ns", cd.P99, base.P99))
	}
	return cs
}

// checkF5 holds Fig 5's shape: from core 0, each even slice is cheaper to
// read than the odd slice beside it (same-parity ring stops are closer).
func checkF5(read []float64) check {
	for s := 0; s+1 < len(read); s += 2 {
		if read[s] >= read[s+1] {
			return checkf("F5/even-slices-cheaper", false, "slice %d reads %.1f cycles, slice %d %.1f", s, read[s], s+1, read[s+1])
		}
	}
	return checkf("F5/even-slices-cheaper", len(read) >= 2, "no per-slice read costs")
}
