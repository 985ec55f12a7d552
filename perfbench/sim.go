package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/llc"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/trace"
)

// simSpec is one simulated testbed: the DuT the paper's F13 or F14 runs.
type simSpec struct {
	name     string
	stateful bool // Router(3120 routes)-NAPT-LB instead of the plain forwarder
	steering dpdk.Steering
}

var (
	// fwdRSS is F13: plain forwarding, RSS. Steering is presteered as one
	// array pass, the DDIO DMA write path and the event core do most work.
	fwdRSS = simSpec{name: "fwd-rss", steering: dpdk.RSS}
	// chainFDir is F14: the stateful chain with FlowDirector, which refuses
	// presteering, so steering stays inline per packet; NF service and the
	// flow tables do most of the work.
	chainFDir = simSpec{name: "chain-fdir", stateful: true, steering: dpdk.FlowDirector}
)

// offeredGbps is the campus-mix offered load of F13 and F14.
const offeredGbps = 100

// arm is one side of the comparison: a DuT with or without CacheDirector.
type arm struct {
	cd       bool
	machine  *cpusim.Machine
	port     *dpdk.Port
	chain    *nfv.Chain
	dut      *netsim.DuT
	overhead uint64
}

func (a *arm) label() string {
	if a.cd {
		return "cachedirector"
	}
	return "dpdk"
}

// buildArm assembles an 8-core Haswell DuT the way the F13/F14 harness
// does, through the same public constructors.
func buildArm(spec simSpec, withCD bool) (*arm, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, err
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 1024, PoolMbufs: 4096,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: spec.steering,
	})
	if err != nil {
		return nil, err
	}
	if withCD {
		d, err := cachedirector.New(m, cachedirector.Config{})
		if err != nil {
			return nil, err
		}
		if err := d.Attach(port); err != nil {
			return nil, err
		}
	}
	a := &arm{cd: withCD, machine: m, port: port, overhead: netsim.DefaultOverheadCycles}
	if spec.stateful {
		router, err := nfv.NewRouter(m.Space)
		if err != nil {
			return nil, err
		}
		if err := router.PopulateDefaultAndRandom(3120); err != nil {
			return nil, err
		}
		router.HWOffload = true
		napt, err := nfv.NewNAPT(m.Space, 1<<15, 0xc0a80001)
		if err != nil {
			return nil, err
		}
		lb, err := nfv.NewLoadBalancer(m.Space, 1<<15, 16)
		if err != nil {
			return nil, err
		}
		a.chain, err = nfv.NewChain("Router-NAPT-LB", router, napt, lb)
		if err != nil {
			return nil, err
		}
		a.overhead = netsim.MetronOverheadCycles
	} else if a.chain, err = nfv.NewChain("fwd", nfv.NewForwarder()); err != nil {
		return nil, err
	}
	a.dut, err = netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: a.chain, OverheadCycles: a.overhead})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// buildPair builds the DPDK arm and the CacheDirector arm.
func buildPair(spec simSpec) ([2]*arm, error) {
	var p [2]*arm
	for i := range p {
		a, err := buildArm(spec, i == 1)
		if err != nil {
			return p, err
		}
		p[i] = a
	}
	return p, nil
}

// packetGen returns the campus-mix generator of one round. Both arms of a
// round see the same packets.
func packetGen(seed int64, round int) (trace.Generator, error) {
	return trace.NewCampusMix(rand.New(rand.NewSource(subSeed(seed, "packets", round))), 4096)
}

// simRun is one arm's run of one round.
type simRun struct {
	arm  string
	res  netsim.Result
	host time.Duration
}

// runArm offers one round's packets to an arm through netsim.RunRateAuto,
// the entry the figures use, then resets the DuT for the next back-to-back
// run (caches stay warm, as in the paper's repeated runs).
func runArm(a *arm, seed int64, round, packets int) (simRun, error) {
	gen, err := packetGen(seed, round)
	if err != nil {
		return simRun{}, err
	}
	start := time.Now()
	res, err := netsim.RunRateAuto(a.dut, gen, packets, offeredGbps)
	host := time.Since(start)
	a.dut.Reset()
	a.port.ResetStats()
	return simRun{arm: a.label(), res: res, host: host}, err
}

// runRound runs both arms on the round's packets, alternating which arm
// goes first so neither always runs on a cooler host.
func runRound(p [2]*arm, seed int64, round, packets int) ([2]simRun, error) {
	var out [2]simRun
	order := []int{0, 1}
	if round%2 == 1 {
		order = []int{1, 0}
	}
	for _, i := range order {
		r, err := runArm(p[i], seed, round, packets)
		if err != nil {
			return out, fmt.Errorf("round %d %s arm: %w", round, p[i].label(), err)
		}
		out[i] = r
	}
	return out, nil
}

// llcTotals sums the CBo counters over every slice of the machines.
func llcTotals(ms ...*cpusim.Machine) llc.CBoEvents {
	var t llc.CBoEvents
	for _, m := range ms {
		for _, ev := range m.LLC.AllEvents() {
			t.Lookups += ev.Lookups
			t.Misses += ev.Misses
			t.DDIOFills += ev.DDIOFills
			t.Evictions += ev.Evictions
			t.DDIOEvictUnread += ev.DDIOEvictUnread
			t.DDIOFirstTouchHits += ev.DDIOFirstTouchHits
			t.DDIOMissedFirstTouch += ev.DDIOMissedFirstTouch
		}
	}
	return t
}

// simCounts is the simulated work of one round, read from public
// accessors: it is a function of the inputs alone and repeats exactly.
type simCounts struct {
	llc       [2]llc.CBoEvents
	rxDropped uint64
}

// runSim is a simulated-testbed workload: set up e.sz.simPairs DuT pairs,
// then time whole rounds until the interval ends, each round on the next
// pair in turn. Pairs built the same way run at different speeds in one
// process (heap layout, each Go map's own hash seed), by up to 8% on a
// 2-vCPU Xeon host, so the rounds rotate over several pairs and, spread
// over the measured interval, the pairs are replaced one at a time by
// freshly built ones until e.sz.setupReps pairs have been built. The
// median round then stands for the program rather than for one pair's
// luck, and the median set-up sees the same host as the rounds do. Every
// pair runs the untimed first round before it is timed (caches fill, the
// Go heap grows), and every pair's first round must give the same
// Results and LLC counters: that is the determinism check.
func runSim(e *env, spec simSpec) (outcome, error) {
	var o outcome
	var setups []time.Duration
	var probe hostProbe
	sc := newSimChecker(spec.name, e.sz.simPoolRounds)
	var first [2]simRun
	var counts simCounts
	same := true
	// build sets up a pair, timed, and runs its untimed first round.
	build := func() ([2]*arm, error) {
		runtime.GC()
		var p [2]*arm
		d, err := timeIt(func() (err error) { p, err = buildPair(spec); return err })
		setups = append(setups, d)
		if err != nil {
			return p, err
		}
		r, err := runRound(p, e.seed, 0, e.sz.simPackets)
		if err != nil {
			return p, err
		}
		if len(setups) == 1 {
			first, counts = r, readCounts(p, r)
			sc.add(0, r)
		} else {
			same = same && reflect.DeepEqual(first[0].res, r[0].res) &&
				reflect.DeepEqual(first[1].res, r[1].res) && counts == readCounts(p, r)
		}
		runtime.GC()
		return p, nil
	}
	pairs := make([][2]*arm, max(e.sz.simPairs, 2))
	for i := range pairs {
		var err error
		if pairs[i], err = build(); err != nil {
			return o, err
		}
	}

	var roundTimes []time.Duration
	replace := max(e.sz.setupReps-len(pairs), 0)
	every := time.Duration(e.seconds * float64(time.Second) / float64(replace+1))
	start := time.Now()
	end := e.deadline()
	for round := 1; round < e.sz.simPoolRounds || time.Now().Before(end); round++ {
		if done := len(setups) - len(pairs); done < replace && time.Since(start) >= time.Duration(done+1)*every {
			i := done % len(pairs)
			pairs[i] = [2]*arm{}
			var err error
			if pairs[i], err = build(); err != nil {
				return o, err
			}
		}
		p := pairs[round%len(pairs)]
		var r [2]simRun
		d, err := timeIt(func() (err error) { r, err = runRound(p, e.seed, round, e.sz.simPackets); return err })
		if err != nil {
			return o, err
		}
		roundTimes = append(roundTimes, d)
		sc.add(round, r)
		probe.sample()
	}
	rss, err := vmHWM("self")
	if err != nil {
		return o, err
	}

	o.attempted = int64(2 * e.sz.simPackets * len(roundTimes))
	o.endToEnd(&probe, roundTimes, setups, 2*float64(e.sz.simPackets))
	o.set("peak_rss_mb", rss, "MB")
	o.note("%s: %d timed rounds x 2 arms x %d packets, rotating over %d DuT pairs; %d pairs built",
		spec.name, len(roundTimes), e.sz.simPackets, len(pairs), len(setups))

	o.checks = append(sc.checks(), checkf(spec.name+"/same-seed-same-results", same,
		"a fresh DuT pair gave different Results or LLC counters for the same packets"))
	o.digest = simDigest(first, counts)
	return o, nil
}

// readCounts reads the simulated work of a round from public accessors.
func readCounts(p [2]*arm, r [2]simRun) simCounts {
	return simCounts{
		llc:       [2]llc.CBoEvents{llcTotals(p[0].machine), llcTotals(p[1].machine)},
		rxDropped: r[0].res.Dropped + r[1].res.Dropped,
	}
}

// simChecker holds the per-run invariants over every round of a run —
// every offered packet is delivered, dropped or shed, and every latency
// is positive — and pools the first rounds' latencies per arm for the
// p99 comparison (F13/F14 pool three runs per arm the same way).
type simChecker struct {
	name       string
	poolRounds int
	cons, lat  error
	pooled     [2][]float64
}

func newSimChecker(name string, poolRounds int) *simChecker {
	return &simChecker{name: name, poolRounds: poolRounds}
}

func (c *simChecker) add(round int, r [2]simRun) {
	for side, s := range r {
		if err := conservation(s.res); err != nil && c.cons == nil {
			c.cons = fmt.Errorf("round %d %s arm: %w", round, s.arm, err)
		}
		for _, l := range s.res.LatenciesNs {
			if !(l > 0) && c.lat == nil {
				c.lat = fmt.Errorf("round %d %s arm: latency %v ns", round, s.arm, l)
			}
		}
		if round < c.poolRounds {
			c.pooled[side] = append(c.pooled[side], s.res.LatenciesNs...)
		}
	}
}

func (c *simChecker) checks() []check {
	return []check{
		checkErr(c.name+"/conservation", c.cons),
		checkErr(c.name+"/latencies-positive", c.lat),
		checkArmP99(c.name, c.pooled[0], c.pooled[1]),
	}
}

// conservation is Delivered + Dropped + Shed == OfferedPkts.
func conservation(r netsim.Result) error {
	if sum := r.Delivered + r.Dropped + r.Shed; sum != uint64(r.OfferedPkts) {
		return fmt.Errorf("delivered %d + dropped %d + shed %d = %d, offered %d",
			r.Delivered, r.Dropped, r.Shed, sum, r.OfferedPkts)
	}
	return nil
}

// checkArmP99 holds the paper's claim: CacheDirector's pooled p99 is no
// worse than plain DPDK's.
func checkArmP99(name string, dpdkLat, cdLat []float64) check {
	if len(dpdkLat) == 0 || len(cdLat) == 0 {
		return checkf(name+"/cachedirector-p99", false, "no latencies")
	}
	b, c := percentile(dpdkLat, 99), percentile(cdLat, 99)
	return checkf(name+"/cachedirector-p99", c <= b, "CacheDirector p99 %.1f ns above DPDK p99 %.1f ns", c, b)
}

// simDigest hashes the first round's Results and the LLC counters.
func simDigest(first [2]simRun, c simCounts) string {
	h := sha256.New()
	for _, r := range first {
		fmt.Fprintf(h, "%s %+v\n", r.arm, r.res)
	}
	fmt.Fprintf(h, "%+v %d\n", c.llc, c.rxDropped)
	return hex.EncodeToString(h.Sum(nil))
}
