package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/kvs"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/slicemem"
	"sliceaware/internal/vmm"
	"sliceaware/internal/wal"
)

// runSweep is the traced run. It measures every layer the benchmark
// names, whichever workload the run was started for, so each traced run
// prints the whole per-layer budget. Every layer is timed from outside,
// around calls into that layer's public functions, on the inputs of the
// workload the layer serves.
func runSweep(e *env) (outcome, error) {
	var o outcome
	parts := []struct {
		name string
		fn   func(*env) (outcome, error)
	}{
		{"paper-quick", sweepCatalog},
		{"fwd-rss", func(e *env) (outcome, error) { return packetBudget(e, fwdRSS) }},
		{"chain-fdir", func(e *env) (outcome, error) { return packetBudget(e, chainFDir) }},
		{"kvs-serve", sweepKVS},
		{"probes", runProbes},
	}
	for _, p := range parts {
		runtime.GC()
		po, err := p.fn(e)
		if err != nil {
			return o, fmt.Errorf("sweep %s: %w", p.name, err)
		}
		o.merge(po)
	}
	return o, nil
}

// sweepCatalog times each experiment of one catalog round.
func sweepCatalog(e *env) (outcome, error) {
	var o outcome
	entries, err := selectedEntries(e.sz.catalogIDs)
	if err != nil {
		return o, err
	}
	before := readRuntime()
	r, err := runCatalog(e.seed, entries, nil)
	if err != nil {
		return o, err
	}
	o.setRuntime("paper-quick.", before, readRuntime(), 1)
	for _, en := range catalogIDs() {
		o.set("experiments."+en+"_s", r.perID[en].Seconds(), "s")
	}
	o.attempted = int64(len(entries))
	o.checks = checkCatalog(r)
	return o, nil
}

// catalogIDs lists the catalog IDs the sweep reports, in catalog order.
func catalogIDs() []string {
	var ids []string
	for _, en := range catalogEntries() {
		ids = append(ids, en.id)
	}
	return ids
}

// budget accumulates host time per packet layer.
type budget struct {
	steer, deliver, rx, tx, hash, service time.Duration
	packets                               int
	wall                                  time.Duration // whole traced loop
}

// packetBudget measures a simulated workload's cost per packet, layer by
// layer. The untraced part runs the workload's first rounds through
// netsim.RunRateAuto on a fresh DuT pair and reads the simulated counters.
// The traced part drives the same packets, in arrival order, through the
// layers' public calls on another fresh pair: one arrival window of a PMD
// burst per queue is steered and delivered, then every queue is polled
// and serviced burst by burst, with a timer around each call. The event
// core's share is what the untraced cost per packet leaves after the
// timed layers; it is reported even when negative.
func packetBudget(e *env, spec simSpec) (outcome, error) {
	var o outcome
	p := spec.name + "."
	rounds := max(1, e.sz.budgetPackets/e.sz.simPackets)

	live, err := buildPair(spec)
	if err != nil {
		return o, err
	}
	sc := newSimChecker(spec.name, rounds)
	before := readRuntime()
	var untraced time.Duration
	for r := 0; r < rounds; r++ {
		res, err := runRound(live, e.seed, r, e.sz.simPackets)
		if err != nil {
			return o, err
		}
		sc.add(r, res)
		untraced += res[0].host + res[1].host
		if r == 0 {
			t := llcTotals(live[0].machine, live[1].machine)
			o.set(p+"llc.lookups", float64(t.Lookups), "count")
			o.set(p+"llc.misses", float64(t.Misses), "count")
			o.set(p+"llc.ddio_fills", float64(t.DDIOFills), "count")
			o.set(p+"llc.ddio_evict_unread", float64(t.DDIOEvictUnread), "count")
			o.set(p+"llc.ddio_first_touch_hits", float64(t.DDIOFirstTouchHits), "count")
			o.set(p+"llc.ddio_missed_first_touch", float64(t.DDIOMissedFirstTouch), "count")
			o.set(p+"dpdk.rx_dropped", float64(res[0].res.Dropped+res[1].res.Dropped), "count")
		}
	}
	o.setRuntime(p, before, readRuntime(), rounds)
	o.checks = sc.checks()
	live = [2]*arm{}

	traced, err := buildPair(spec)
	if err != nil {
		return o, err
	}
	var b budget
	for r := 0; r < rounds; r++ {
		for _, a := range traced {
			if err := driveLayers(a, e.seed, r, e.sz.simPackets, &b); err != nil {
				return o, err
			}
		}
	}
	n := float64(b.packets)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	untracedNs := float64(untraced.Nanoseconds()) / n
	o.set(p+"dpdk.steer_ns", per(b.steer), "ns")
	o.set(p+"dpdk.deliver_ns", per(b.deliver), "ns")
	o.set(p+"dpdk.rx_ns", per(b.rx), "ns")
	o.set(p+"dpdk.tx_ns", per(b.tx), "ns")
	o.set(p+"llc.slice_hash_ns", per(b.hash), "ns")
	o.set(p+"nfv.service_ns", per(b.service), "ns")
	o.set(p+"netsim.event_core_ns", untracedNs-per(b.steer+b.deliver+b.rx+b.tx+b.service), "ns")
	o.set(p+"netsim.untraced_ns_per_pkt", untracedNs, "ns")
	o.set(p+"netsim.traced_ns_per_pkt", per(b.wall), "ns")
	o.note("%s budget: %d packets per side; traced loop %.0f ns/packet vs untraced netsim run %.0f ns/packet (the traced loop stands in for netsim's event core, so it can be the cheaper)",
		spec.name, b.packets/2, per(b.wall), untracedNs)
	o.attempted = int64(2 * rounds)
	return o, nil
}

// driveLayers pushes one round's packets through one arm's layers with a
// timer around each public call.
func driveLayers(a *arm, seed int64, round, packets int, b *budget) error {
	gen, err := packetGen(seed, round)
	if err != nil {
		return err
	}
	burst := netsim.NewBurst(packets)
	if err := burst.FillRate(gen, packets, offeredGbps); err != nil {
		return err
	}
	port, queues := a.port, a.port.Queues()
	window := queues * netsim.DefaultBurst
	qs := make([]int32, window)
	ms := make([]*dpdk.Mbuf, 0, netsim.DefaultBurst)
	var pas []uint64
	var slices []int

	start := time.Now()
	for lo := 0; lo < packets; lo += window {
		hi := min(lo+window, packets)
		pkts := burst.Pkts[lo:hi]
		for i := range pkts {
			pkts[i].Timestamp = burst.TimesNs[lo+i]
		}

		t := time.Now()
		if port.CanPresteer() {
			port.SteerBatch(pkts, qs)
		} else {
			// FlowDirector steers each packet as it arrives, installing a
			// rule for a new flow; doing it just ahead of delivery keeps
			// the same queue choice, as no frame is lost before steering.
			for i := range pkts {
				qs[i] = int32(port.SteerQueue(pkts[i]))
			}
		}
		b.steer += time.Since(t)

		t = time.Now()
		for i := range pkts {
			port.DeliverPresteered(pkts[i], int(qs[i]))
		}
		b.deliver += time.Since(t)

		for q := 0; q < queues; q++ {
			core := a.machine.Core(q)
			for port.RxQueueLen(q) > 0 {
				t = time.Now()
				ms = port.RxBurstInto(q, netsim.DefaultBurst, ms[:0])
				b.rx += time.Since(t)

				pas = pas[:0]
				for _, mb := range ms {
					for s := mb; s != nil; s = s.Next {
						pa := s.DataPhys()
						for line := pa >> 6; line <= (pa+uint64(s.DataLen())-1)>>6; line++ {
							pas = append(pas, line<<6)
						}
					}
				}
				if cap(slices) < len(pas) {
					slices = make([]int, len(pas))
				}
				t = time.Now()
				a.machine.LLC.SliceOfBatch(pas, slices[:len(pas)])
				b.hash += time.Since(t)

				// The driver's descriptor and metadata reads and the fixed
				// per-packet overhead belong to the event core's share.
				for _, mb := range ms {
					core.Read(mb.BaseVA())
					core.Read(mb.BaseVA() + 64)
				}
				t = time.Now()
				a.chain.ProcessBatch(core, ms)
				b.service += time.Since(t)
				core.AddCycles(a.overhead * uint64(len(ms)))

				t = time.Now()
				port.TxBurst(q, ms)
				b.tx += time.Since(t)
			}
		}
	}
	b.wall += time.Since(start)
	b.packets += packets
	return nil
}

// sweepKVS runs the serving workload twice on fresh daemons for the same
// number of rounds: untraced, then with every request traced
// (-trace-sample 1). The untraced daemon gives the client-measured
// latency, set-up and RSS; the traced daemon's stage histograms give the
// mean wall time per request stage and its counters the refusals; the
// two throughputs give the tracing overhead.
func sweepKVS(e *env) (outcome, error) {
	var o outcome
	var runs [2]kvsRun
	for i, extra := range [][]string{nil, {"-trace-sample", "1"}} {
		run, err := serveKVS(e, fmt.Sprintf("sweep-%d", i), 1, e.sz.sweepKVSRounds, 0, extra...)
		if err != nil {
			return o, err
		}
		runs[i] = run
		o.attempted += run.ops
		o.failed += run.failed
		o.checks = append(o.checks, run.checks()...)
	}
	plain, traced := runs[0], runs[1]
	for _, st := range []string{"parse", "drain_gate", "shed", "ladder", "breaker", "inbox_wait", "shard_service", "store_op", "reply_write"} {
		lbl := fmt.Sprintf("stage=%q", st)
		sum := promSum(traced.metrics, "slicekvsd_request_stage_ns_sum", lbl)
		count := promSum(traced.metrics, "slicekvsd_request_stage_ns_count", lbl)
		if count == 0 {
			return o, fmt.Errorf("traced daemon recorded no %s stage", st)
		}
		o.set("slicekvsd."+st+"_ns", sum/count, "ns")
	}
	for _, out := range []string{"shed", "aqm", "inbox_full", "timeout"} {
		name := out
		if out == "timeout" {
			name = "timeouts"
		}
		o.set("slicekvsd."+name, promSum(traced.metrics, "slicekvsd_responses_total", fmt.Sprintf("outcome=%q", out)), "count")
	}
	throughput := func(r kvsRun) float64 {
		if r.elapsed == 0 {
			return 0 // a violation ended the run before a measured round
		}
		return float64(r.ops-r.failed) / r.elapsed.Seconds()
	}
	o.set("kvs-serve.ops_per_s_untraced", throughput(plain), "1/s")
	o.set("kvs-serve.ops_per_s_traced", throughput(traced), "1/s")
	o.set("kvs-serve.p50_us", percentile(plain.latUs, 50), "us")
	o.set("kvs-serve.p99_us", percentile(plain.latUs, 99), "us")
	o.set("kvs-serve.p999_us", percentile(plain.latUs, 99.9), "us")
	o.set("kvs-serve.latency_samples", float64(len(plain.latUs)), "count")
	o.set("kvs-serve.setup_s", plain.setups[0].Seconds(), "s")
	o.set("kvs-serve.peak_rss_mb", plain.rss, "MB")
	o.note("kvs-serve tracing overhead: %.0f ops/s untraced vs %.0f traced", throughput(plain), throughput(traced))
	return o, nil
}

// runProbes times the set-up and per-call costs no workload run isolates.
func runProbes(e *env) (outcome, error) {
	var o outcome
	if err := accessProbe(e, &o); err != nil {
		return o, err
	}
	if err := setupProbes(e, &o); err != nil {
		return o, err
	}
	if err := kvsProbes(e, &o); err != nil {
		return o, err
	}
	return o, nil
}

// accessProbe is an F7-like slice-aware sweep: each of the 8 cores reads
// and writes random lines of a 3 MB array homed to its own slice, timing
// Core.ReadPhys/WritePhys and counting where the accesses were served. The
// array overflows the 2.5 MB slice, so every level of the hierarchy
// serves some of them.
func accessProbe(e *env, o *outcome) error {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return err
	}
	alloc, err := slicemem.New(m.Space, m.LLC.Hash())
	if err != nil {
		return err
	}
	const lines = (3 << 20) / 64
	pas := make([][]uint64, m.Cores())
	for c := range pas {
		region, err := alloc.AllocLines(c, lines)
		if err != nil {
			return err
		}
		for _, va := range region.Lines() {
			pa, err := m.Space.Translate(va)
			if err != nil {
				return err
			}
			pas[c] = append(pas[c], pa)
		}
	}
	for i := 0; i < lines; i++ {
		for c := range pas {
			m.Core(c).ReadPhys(pas[c][i])
		}
	}
	rng := rand.New(rand.NewSource(subSeed(e.seed, "access-probe", 0)))
	idx := make([]int, e.sz.probeAccesses)
	for i := range idx {
		idx[i] = rng.Intn(lines)
	}
	var before cpusim.AccessStats
	for c := range pas {
		before = addStats(before, m.Core(c).Stats())
	}
	start := time.Now()
	for i, x := range idx {
		for c := range pas {
			if i%4 == 3 {
				m.Core(c).WritePhys(pas[c][x])
			} else {
				m.Core(c).ReadPhys(pas[c][x])
			}
		}
	}
	el := time.Since(start)
	var after cpusim.AccessStats
	for c := range pas {
		after = addStats(after, m.Core(c).Stats())
	}
	n := float64(len(idx) * len(pas))
	o.set("cpusim.access_ns", float64(el.Nanoseconds())/n, "ns")
	o.set("cpusim.l1_hits", float64(after.L1Hits-before.L1Hits), "count")
	o.set("cpusim.l2_hits", float64(after.L2Hits-before.L2Hits), "count")
	o.set("cpusim.llc_hits", float64(after.LLCHits-before.LLCHits), "count")
	o.set("cpusim.dram_ops", float64(after.DRAMOps-before.DRAMOps), "count")
	o.attempted++
	return nil
}

func addStats(a, b cpusim.AccessStats) cpusim.AccessStats {
	a.L1Hits += b.L1Hits
	a.L2Hits += b.L2Hits
	a.LLCHits += b.LLCHits
	a.DRAMOps += b.DRAMOps
	return a
}

// setupProbes times the three set-up steps that dominate set-up cost:
// building a machine, the hypervisor warm-up of S7H, and the 3120-route
// router of chain-fdir. Each is the median of several repetitions.
func setupProbes(e *env, o *outcome) error {
	probes := []struct {
		name string
		reps int
		prep func() (func() error, error) // untimed preparation, then the timed step
	}{
		{"cpusim.new_machine_ms", e.sz.probeReps, func() (func() error, error) {
			return func() error { _, err := cpusim.NewMachine(arch.HaswellE52667v3()); return err }, nil
		}},
		// One warm-up takes seconds; S7H runs two per catalog round.
		{"vmm.warmup_ms", 1, func() (func() error, error) {
			m, err := cpusim.NewMachine(arch.SkylakeGold6134())
			if err != nil {
				return nil, err
			}
			h, err := vmm.New(m, vmm.SliceIsolated)
			if err != nil {
				return nil, err
			}
			if _, err := h.AddVM(vmm.VMConfig{Name: "quiet", Core: 0, WorkingSet: 3 << 20}); err != nil {
				return nil, err
			}
			if _, err := h.AddVM(vmm.VMConfig{Name: "noisy", Core: 4, WorkingSet: 64 << 20, Noisy: true}); err != nil {
				return nil, err
			}
			return func() error { h.Warmup(); return nil }, nil
		}},
		{"nfv.router_build_ms", e.sz.probeReps, func() (func() error, error) {
			m, err := cpusim.NewMachine(arch.HaswellE52667v3())
			if err != nil {
				return nil, err
			}
			return func() error {
				r, err := nfv.NewRouter(m.Space)
				if err != nil {
					return err
				}
				return r.PopulateDefaultAndRandom(3120)
			}, nil
		}},
	}
	for _, p := range probes {
		var ms []float64
		for i := 0; i < p.reps; i++ {
			step, err := p.prep()
			if err != nil {
				return err
			}
			d, err := timeIt(step)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		o.set(p.name, median(ms), "ms")
		o.attempted += int64(len(ms))
	}
	return nil
}

// kvsProbes time one daemon shard's store and journal in process on the
// kvs-serve request stream: the requests shard 0 would serve go through
// kvs.Store.ServeOne, and its setv records through wal.Journal.Append,
// group-committed every 64 records as the daemon does by default.
func kvsProbes(e *env, o *outcome) error {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return err
	}
	store, err := kvs.New(m, kvs.Config{Keys: e.sz.kvsKeys / 2, ServingCore: 0, SliceAware: true})
	if err != nil {
		return err
	}
	var reqs []kvsOp
	for c := 0; c < kvsConns; c++ {
		s, err := newOpStream(e.seed, c, e.sz.kvsKeys)
		if err != nil {
			return err
		}
		for len(reqs) < (c+1)*e.sz.probeOps/kvsConns {
			if op := s.next(); op.key%2 == 0 {
				reqs = append(reqs, kvsOp{key: op.key / 2, set: op.set})
			}
		}
	}
	rand.New(rand.NewSource(subSeed(e.seed, "kvs-probe", 0))).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	start := time.Now()
	for _, r := range reqs {
		if _, err := store.ServeOne(r.key, !r.set); err != nil {
			return err
		}
	}
	o.set("kvs.serve_one_ns", float64(time.Since(start).Nanoseconds())/float64(len(reqs)), "ns")

	dir := filepath.Join(e.work, "wal-probe")
	defer os.RemoveAll(dir)
	j, err := wal.OpenJournal(dir, 0, 0)
	if err != nil {
		return err
	}
	defer j.Close()
	vers := map[uint64]uint64{}
	var appendT, flushT time.Duration
	var appends, flushes int
	for _, r := range reqs {
		if !r.set {
			continue
		}
		vers[r.key]++
		rec := wal.Record{Seq: uint64(appends + 1), Key: r.key, Ver: vers[r.key], Op: wal.OpSet}
		t := time.Now()
		if err := j.Append(rec); err != nil {
			return err
		}
		appendT += time.Since(t)
		appends++
		if j.Pending() >= 64 {
			t = time.Now()
			if err := j.Flush(); err != nil {
				return err
			}
			flushT += time.Since(t)
			flushes++
		}
	}
	if appends == 0 || flushes == 0 {
		return fmt.Errorf("wal probe: %d appends, %d flushes", appends, flushes)
	}
	o.set("wal.append_ns", float64(appendT.Nanoseconds())/float64(appends), "ns")
	o.set("wal.flush_ns", float64(flushT.Nanoseconds())/float64(flushes), "ns")
	o.attempted += int64(len(reqs) + appends)
	return nil
}
