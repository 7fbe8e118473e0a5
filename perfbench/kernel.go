package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// kernel-b37: one goroutine runs batch RunOpts calls on one
// NewNetwork(B(3,7)) — 2,187 nodes, so AutoRouting builds the int8
// next-arc table — cycling through the six kernelVariants over a fixed
// set of seeded inputs. It is where the cycle kernel, the recorder and
// the fault and heal engines spend their time; shard, shift, serve and
// HTTP stay idle.

const (
	kernelD, kernelDiam = 3, 7
	kernelInputs        = 16 // distinct seeded inputs per variant
	setupRepeats        = 9  // least set-ups per run; setup_s is their median
	// setupMin is the least time the in-process set-ups take together:
	// a fast set-up is repeated more often, so its median is as steady.
	setupMin = 500 * time.Millisecond
)

// kernelInput is one seeded input of every variant.
type kernelInput struct {
	perm    simnet.Workload // a random permutation, one packet per node
	uniform simnet.Workload // 4N uniform-random packets
	rated   simnet.Workload // N packets offered at 2× SaturationRate
	plan    *simnet.FaultPlan
	n       int // nodes: packets offered by every variant but uniform
}

// offered is how many packets variant v offers.
func (in *kernelInput) offered(v string) int {
	if v == "uniform" {
		return 4 * in.n
	}
	return in.n
}

// summary is the host-independent outcome of one run: what the checks
// compare and what the exact counts add up.
type summary struct {
	Offered, Delivered, Dropped, Shed int
	Cycles, Hops, LatencySum          int
	Holds, Reroutes, Retries          int
	Nacks, Repairs                    int
}

// summarize condenses a run result. LatencySum adds delivery minus
// release cycle over the delivered packets.
func summarize(offered int, fr simnet.FaultResult) summary {
	s := summary{
		Offered: offered, Delivered: fr.Delivered, Dropped: fr.Dropped, Shed: fr.Shed,
		Cycles: fr.Cycles, Hops: fr.TotalHops, Holds: fr.Holds,
		Reroutes: fr.Reroutes, Retries: fr.Retries,
	}
	for _, p := range fr.Packets {
		if p.Delivered >= 0 {
			s.LatencySum += p.Delivered - p.Release
		}
	}
	return s
}

func summarizeHeal(offered int, hr simnet.HealResult) summary {
	s := summarize(offered, hr.FaultResult)
	s.Nacks, s.Repairs = hr.Nacks, hr.Repairs
	return s
}

// add accumulates o into s.
func (s *summary) add(o summary) {
	s.Offered += o.Offered
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Shed += o.Shed
	s.Cycles += o.Cycles
	s.Hops += o.Hops
	s.LatencySum += o.LatencySum
	s.Holds += o.Holds
	s.Reroutes += o.Reroutes
	s.Retries += o.Retries
	s.Nacks += o.Nacks
	s.Repairs += o.Repairs
}

// checkConserved is the accounting identity every run must keep.
func checkConserved(what string, s summary) error {
	if s.Delivered+s.Dropped+s.Shed != s.Offered {
		return fmt.Errorf("%s: delivered %d + dropped %d + shed %d != offered %d",
			what, s.Delivered, s.Dropped, s.Shed, s.Offered)
	}
	return nil
}

// checkRun checks one run against the identity and against the result
// the same input gave on the untimed first pass (runs are deterministic).
func checkRun(what string, got, want summary) error {
	if err := checkConserved(what, got); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: result %+v differs from the first pass %+v", what, got, want)
	}
	return nil
}

// checkSameResult checks that two engines gave identical cycle-domain
// results on the same input (plain and recorded runs).
func checkSameResult(what string, a, b simnet.Result) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s: results differ (%v vs %v)", what, a, b)
	}
	return nil
}

// timedSetup builds g and its network, timing each step.
func timedSetup(tr *tracer, req int64, build func() *digraph.Digraph, opts ...simnet.NetworkOption) (*digraph.Digraph, *simnet.Network, setupTimes, error) {
	root := tr.begin("bench.setup", "bench", -1, req)
	defer tr.end(root)
	c0, t0 := cpuTime(), now()
	sp := tr.begin("debruijn.DeBruijn", "debruijn", root, req)
	g := build()
	tr.end(sp)
	t1 := now()
	sp = tr.begin("simnet.NewNetwork", "simnet", root, req)
	nw, err := simnet.NewNetwork(g, opts...)
	tr.end(sp)
	t2, c2 := now(), cpuTime()
	return g, nw, setupTimes{graph: t1.Sub(t0), network: t2.Sub(t1), cpu: c2 - c0}, err
}

// setupTimes are one set-up's wall times per step and its CPU time.
type setupTimes struct{ graph, network, cpu time.Duration }

// setupStats runs setupRepeats set-ups, records the build metrics of a
// traced run, and returns the last graph and network with the median
// set-up CPU time in seconds.
func setupStats(e *env, r *report, tr *tracer, build func() *digraph.Digraph, opts ...simnet.NetworkOption) (*digraph.Digraph, *simnet.Network, float64, error) {
	var g *digraph.Digraph
	var nw *simnet.Network
	var total, graph, network, recognize []float64
	// One untimed set-up first grows the heap to its working size; each
	// timed one then starts from a collected heap.
	if _, _, _, err := timedSetup(nil, 0, build, opts...); err != nil {
		return nil, nil, 0, err
	}
	spent := time.Duration(0)
	for i := 0; i < setupRepeats || (spent < setupMin && i < 16*setupRepeats); i++ {
		var st setupTimes
		var err error
		runtime.GC()
		g, nw, st, err = timedSetup(tr, int64(-1-i), build, opts...)
		if err != nil {
			return nil, nil, 0, err
		}
		total = append(total, st.cpu.Seconds())
		spent += st.graph + st.network
		graph = append(graph, ms(st.graph))
		network = append(network, ms(st.network))
		if e.trace {
			sp := tr.begin("debruijn.Recognize", "debruijn", -1, int64(-1-i))
			t0 := now()
			_, _, ok := debruijn.Recognize(g)
			recognize = append(recognize, ms(since(t0)))
			tr.end(sp)
			if !ok {
				r.fail("debruijn.Recognize rejected a de Bruijn graph")
			}
		}
	}
	if e.trace {
		r.layer["debruijn.build_ms"] = median(graph)
		r.layer["debruijn.recognize_ms"] = median(recognize)
		r.layer["simnet.network_build_ms"] = median(network)
		r.layer["simnet.router_mb"] = retainedMB(func() any {
			nw, err := simnet.NewNetwork(g, opts...)
			if err != nil {
				r.fail("simnet.NewNetwork: %v", err)
			}
			return nw
		})
	}
	r.samples["setup"] = len(total)
	return g, nw, median(total), nil
}

// retainedMB is the live heap, in MB, that what build returns keeps.
func retainedMB(build func() any) float64 {
	before := liveHeap()
	v := build()
	after := liveHeap()
	runtime.KeepAlive(v)
	return float64(after-before) / 1e6
}

// liveHeap is the heap in use after forced collections, in bytes. The
// second collection also frees what sync.Pool caches kept alive
// through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// kernelInputsFor generates the seeded inputs, before any timing.
//
// Each input's fault plan takes down, for 40 cycles from cycle 0, the
// first-hop arc of one seeded packet, chosen among packets whose first
// hop is the busiest out-arc of their source (the arc that routes the
// most destinations). The packet itself detects the fault at once, so
// every healed run commits exactly one link-down event and repairs a
// slab of similar size: the heal cost does not swing with the seed.
func kernelInputsFor(g *digraph.Digraph, seed int64) ([]kernelInput, error) {
	n := g.N()
	sat, ok := simnet.SaturationRate(g)
	if !ok {
		return nil, fmt.Errorf("B(%d,%d) has no saturation rate", kernelD, kernelDiam)
	}
	table := simnet.NewTableRouter(g)
	busiest := make([]int, n) // node -> its out-arc routing the most destinations
	for u := 0; u < n; u++ {
		count := make([]int, g.OutDegree(u))
		for dst := 0; dst < n; dst++ {
			if dst != u {
				count[table.NextArc(u, dst)]++
			}
		}
		for k, c := range count {
			if c > count[busiest[u]] {
				busiest[u] = k
			}
		}
	}
	ins := make([]kernelInput, kernelInputs)
	for k := range ins {
		s := seed*1_000_003 + int64(k)
		rng := rand.New(rand.NewSource(s))
		perm := simnet.Permutation(n, s)
		var p simnet.Packet
		for {
			p = perm[rng.Intn(n)]
			if p.Src != p.Dst && table.NextArc(p.Src, p.Dst) == busiest[p.Src] {
				break
			}
		}
		plan := simnet.NewFaultPlanFor(g).LinkDown(0, 40, p.Src, busiest[p.Src])
		if err := plan.Err(); err != nil {
			return nil, err
		}
		ins[k] = kernelInput{
			perm:    simnet.Fixed(perm),
			uniform: simnet.Fixed(simnet.UniformRandom(n, 4*n, s)),
			rated:   simnet.Fixed(simnet.RatedUniform(n, n, 2*sat, s)),
			plan:    plan,
			n:       n,
		}
	}
	return ins, nil
}

// kernelOp is one timed call of a variant, with the span layout of a
// traced run.
type kernelOp struct {
	sum  summary
	res  simnet.Result // plain and recorded only: the full result
	open time.Duration // healed only: the SelfHeal call
	dur  time.Duration // the layer calls, excluding checks and tracing
}

func runVariant(nw *simnet.Network, v string, in *kernelInput, tr *tracer, parent int, req int64) (kernelOp, error) {
	var op kernelOp
	var rep simnet.RunReport
	var err error
	call := func(name, layer string, f func()) time.Duration {
		sp := tr.begin(name, layer, parent, req)
		t0 := now()
		f()
		d := since(t0)
		tr.end(sp)
		return d
	}
	switch v {
	case "plain":
		op.dur = call("simnet.RunOpts", "simnet", func() { rep, err = nw.RunOpts(in.perm) })
	case "uniform":
		op.dur = call("simnet.RunOpts", "simnet", func() { rep, err = nw.RunOpts(in.uniform) })
	case "recorded":
		var rec *obs.Recorder
		op.dur = call("obs.NewRecorder", "obs", func() { rec = obs.NewRecorder(nil) })
		op.dur += call("simnet.RunOpts", "simnet", func() { rep, err = nw.RunOpts(in.perm, simnet.WithRecorder(rec)) })
	case "bounded":
		op.dur = call("simnet.RunOpts", "simnet", func() { rep, err = nw.RunOpts(in.rated, simnet.WithQueueCapacity(4)) })
	case "faulted":
		op.dur = call("simnet.RunOpts", "simnet", func() { rep, err = nw.RunOpts(in.perm, simnet.WithFaults(in.plan)) })
	case "healed":
		var s *simnet.SelfHealing
		op.open = call("simnet.SelfHeal", "simnet", func() { s, err = nw.SelfHeal(in.plan, simnet.HealConfig{}) })
		if err != nil {
			return op, err
		}
		pkts := in.perm.Packets(0, 0)
		var hr simnet.HealResult
		op.dur = op.open + call("simnet.SelfHealing.Run", "simnet", func() { hr, err = s.Run(pkts) })
		op.sum = summarizeHeal(in.offered(v), hr)
		return op, err
	default:
		return op, fmt.Errorf("unknown variant %q", v)
	}
	op.sum = summarize(in.offered(v), rep.FaultResult)
	op.res = rep.Result
	return op, err
}

// variantStats accumulates one variant's traced ops.
type variantStats struct {
	ops, pkts int
	dur, open time.Duration
	allocs    uint64
}

func runKernel(e *env, r *report) error {
	origin := now()
	var tr *tracer
	if e.trace {
		tr = newTracer(origin)
		r.tracer = tr
	}
	g, nw, setup, err := setupStats(e, r, tr, func() *digraph.Digraph { return debruijn.DeBruijn(kernelD, kernelDiam) })
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	if nw.Routing() != simnet.TableRouting {
		r.fail("B(%d,%d) routes by %v, want the table", kernelD, kernelDiam, nw.Routing())
	}
	ins, err := kernelInputsFor(g, e.seed)
	if err != nil {
		return err
	}

	// Untimed first pass: the expected result of every (variant, input),
	// the exact counts, and plain == recorded on every input.
	want := make([][]summary, len(kernelVariants))
	total := make([]summary, len(kernelVariants))
	for vi, v := range kernelVariants {
		want[vi] = make([]summary, len(ins))
		for k := range ins {
			r.attempted++
			op, err := runVariant(nw, v, &ins[k], nil, -1, 0)
			if err != nil {
				r.fail("first pass %s/%d: %v", v, k, err)
				continue
			}
			r.check(checkConserved(fmt.Sprintf("first pass %s/%d", v, k), op.sum))
			want[vi][k] = op.sum
			total[vi].add(op.sum)
		}
	}
	for k := range ins {
		r.attempted++
		plain, err1 := runVariant(nw, "plain", &ins[k], nil, -1, 0)
		rec, err2 := runVariant(nw, "recorded", &ins[k], nil, -1, 0)
		if err1 != nil || err2 != nil {
			r.fail("plain/recorded %d: %v %v", k, err1, err2)
			continue
		}
		r.check(checkSameResult(fmt.Sprintf("plain vs recorded on input %d", k), plain.res, rec.res))
	}
	var pass summary
	for vi, v := range kernelVariants {
		pass.add(total[vi])
		for _, f := range []struct {
			name string
			v    int
		}{{"delivered", total[vi].Delivered}, {"dropped", total[vi].Dropped}, {"shed", total[vi].Shed},
			{"cycles", total[vi].Cycles}, {"hops", total[vi].Hops}, {"latency_sum", total[vi].LatencySum},
			{"holds", total[vi].Holds}, {"reroutes", total[vi].Reroutes}, {"retries", total[vi].Retries},
			{"nacks", total[vi].Nacks}, {"repairs", total[vi].Repairs}} {
			r.exact["kernel."+v+"."+f.name] = int64(f.v)
		}
	}
	r.e2e["sim_latency_cycles"] = ratio(float64(pass.LatencySum), float64(pass.Delivered))

	// Timed phase, in passes. A pass runs the other variants on every
	// input, then healed (the last variant) on one input, a different one
	// every second pass: a healed run repairs a routing slab, which costs
	// as much as 50 plain runs, and healing every input would spend most
	// of a pass there. A traced run alternates untraced and traced inputs,
	// swapping them every pass, and traces the healed run of every second
	// pass, so the tracing overhead is measured on the same ops,
	// interleaved.
	healed := len(kernelVariants) - 1
	passLen := healed*len(ins) + 1
	stats := make([]variantStats, len(kernelVariants))
	var lat []float64
	var delivered, offered int
	var wall [2]time.Duration // untraced, traced
	var wallOps [2]int
	// Delivered packets of each whole pass per CPU second and per wall
	// second, and its CPU ms per op.
	var passRates, passWallRates, passOpMS []float64
	passDelivered := 0
	cpu0 := cpuTime()
	start := now()
	passStart, passCPU := start, cpu0
	limit := time.Duration(e.seconds * float64(time.Second))
	for op := 0; since(start) < limit; op++ {
		p, i := op/passLen, op%passLen
		vi, k, odd := i%healed, i/healed, (i/healed+p)%2 == 1
		if i == passLen-1 {
			vi, k, odd = healed, (p/2)%len(ins), p%2 == 1
		}
		v := kernelVariants[vi]
		traced := e.trace && odd
		var opTr *tracer
		var a0 uint64
		w0 := now()
		root := -1
		if traced {
			opTr = tr
			root = tr.begin("bench.op", "bench", -1, int64(op))
			a0 = mallocs()
		}
		r.attempted++
		res, err := runVariant(nw, v, &ins[k], opTr, root, int64(op))
		if traced {
			st := &stats[vi]
			st.allocs += mallocs() - a0
			st.ops++
			st.pkts += ins[k].offered(v)
			st.dur += res.dur
			st.open += res.open
		}
		if err != nil {
			r.fail("%s/%d: %v", v, k, err)
		} else {
			r.check(checkRun(fmt.Sprintf("%s/%d", v, k), res.sum, want[vi][k]))
			delivered += res.sum.Delivered
			offered += res.sum.Offered
			passDelivered += res.sum.Delivered
			lat = append(lat, ms(res.dur))
		}
		tr.end(root)
		ti := 0
		if traced {
			ti = 1
		}
		wall[ti] += since(w0)
		wallOps[ti]++
		if op%passLen == passLen-1 {
			c := cpuTime()
			passRates = append(passRates, float64(passDelivered)/(c-passCPU).Seconds())
			passWallRates = append(passWallRates, float64(passDelivered)/since(passStart).Seconds())
			passOpMS = append(passOpMS, ms(c-passCPU)/float64(passLen))
			passStart, passCPU, passDelivered = now(), c, 0
		}
	}
	wallS, cpuS := since(start), cpuTime()-cpu0
	r.timedPhase(wallS, cpuS)
	if len(passRates) == 0 { // a run shorter than one pass
		passRates = append(passRates, float64(delivered)/cpuS.Seconds())
		passWallRates = append(passWallRates, float64(delivered)/wallS.Seconds())
		passOpMS = append(passOpMS, ratio(ms(cpuS), float64(len(lat))))
	}

	r.samples["passes"] = len(passRates)
	r.e2e["pkts_per_cpu_s"] = median(passRates)
	r.layer["bench.pkts_per_wall_s"] = median(passWallRates)
	// req_p50_ms is the median over passes of a pass's CPU time per op.
	// The median op of the mix sits in one variant's cluster of
	// latencies, and moved twice as far as the pass rate when the host's
	// speed changed.
	r.latency(median(passOpMS), lat)
	r.e2e["delivered_frac"] = ratio(float64(delivered), float64(offered))
	r.e2e["heap_live_mb"] = float64(liveHeap()) / 1e6
	runtime.KeepAlive(ins)
	runtime.KeepAlive(nw)

	if e.trace {
		var all time.Duration
		for _, st := range stats {
			all += st.dur
		}
		nsPerPkt := map[string]float64{}
		for vi, v := range kernelVariants {
			st := stats[vi]
			nsPerPkt[v] = ratio(float64(st.dur), float64(st.pkts))
			r.layer["simnet."+v+".ns_per_pkt"] = nsPerPkt[v]
			r.layer["simnet."+v+".allocs_per_op"] = ratio(float64(st.allocs), float64(st.ops))
			r.layer["simnet."+v+".time_share"] = ratio(float64(st.dur), float64(all))
			r.samples["traced."+v] = st.ops
		}
		r.layer["obs.overhead_ratio"] = ratio(nsPerPkt["recorded"], nsPerPkt["plain"])
		r.layer["simnet.fault_overhead_ratio"] = ratio(nsPerPkt["faulted"], nsPerPkt["plain"])
		r.layer["simnet.heal_overhead_ratio"] = ratio(nsPerPkt["healed"], nsPerPkt["plain"])
		r.layer["simnet.healed.open_us"] = ratio(float64(stats[healed].open), float64(stats[healed].ops)) / 1e3
		for _, name := range []string{"bounded.holds", "faulted.reroutes", "faulted.retries", "healed.nacks", "healed.repairs"} {
			r.layer["simnet."+name] = float64(r.exact["kernel."+name])
		}
		r.layer["sim.hops_per_pkt"] = ratio(float64(pass.Hops), float64(pass.Delivered))
		r.layer["bench.trace_overhead_pct"] = traceOverhead(wall, wallOps)
	}
	return nil
}

// traceOverhead is how much longer a traced op took than an untraced
// one, in percent of the untraced mean.
func traceOverhead(wall [2]time.Duration, ops [2]int) float64 {
	untraced := ratio(float64(wall[0]), float64(ops[0]))
	traced := ratio(float64(wall[1]), float64(ops[1]))
	if untraced == 0 {
		return 0
	}
	return (traced/untraced - 1) * 100
}
