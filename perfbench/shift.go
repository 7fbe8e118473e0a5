package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/simnet"
)

// shift-b216: seeded permutations on NewNetwork(B(2,16), WithShards(2))
// — 65,536 nodes, above the 4,096-node AutoRouting crossover, so routing
// is the table-free left shift. It is where O(1) self-routing and the
// shard barrier cost show; the table, the recorder, the fault and heal
// engines and serve stay idle.
//
// The timed phase runs sequentially (WithShards(1)). The two shards'
// spin barrier needs both vCPUs of a 2-vCPU host at once: when the host
// takes one away, the other shard spins, and over ten seeds the sharded
// wall-clock p50 spread 0.46 and its packets per CPU second dropped by a
// third within an hour. Every sharded result is checked against the
// sequential one before timing, and a traced run times the sharded
// engine next to the sequential one (simnet.shard.speedup).

const (
	shiftD, shiftDiam = 2, 16
	shiftShards       = 2
	shiftInputs       = 6
)

// checkShardEqual checks a sharded run against the sequential engine on
// the same input: the results must be identical, and the run must have
// used the sharded engine.
func checkShardEqual(what string, sharded, seq simnet.RunReport) error {
	if sharded.ShardFallback {
		return fmt.Errorf("%s: the sharded run fell back to the sequential engine", what)
	}
	if !reflect.DeepEqual(sharded.FaultResult, seq.FaultResult) {
		return fmt.Errorf("%s: sharded result %v differs from sequential %v", what, sharded.Result, seq.Result)
	}
	return nil
}

func runShift(e *env, r *report) error {
	origin := now()
	var tr *tracer
	if e.trace {
		tr = newTracer(origin)
		r.tracer = tr
	}
	g, nw, setup, err := setupStats(e, r, tr, func() *digraph.Digraph { return debruijn.DeBruijn(shiftD, shiftDiam) },
		simnet.WithShards(shiftShards))
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	if nw.Routing() != simnet.ShiftRouting {
		r.fail("B(%d,%d) routes by %v, want the shift rule", shiftD, shiftDiam, nw.Routing())
	}
	n := g.N()
	ins := make([]simnet.Workload, shiftInputs)
	for k := range ins {
		ins[k] = simnet.Fixed(simnet.Permutation(n, e.seed*1_000_003+int64(k)))
	}

	// Untimed: each input's sharded result must equal the sequential
	// engine's; it is the expected result of the timed runs.
	want := make([]summary, len(ins))
	var pass summary
	for k, in := range ins {
		r.attempted++
		sharded, err1 := nw.RunOpts(in)
		seq, err2 := nw.RunOpts(in, simnet.WithShards(1))
		if err1 != nil || err2 != nil {
			r.fail("input %d: %v %v", k, err1, err2)
			continue
		}
		r.check(checkShardEqual(fmt.Sprintf("input %d", k), sharded, seq))
		want[k] = summarize(n, sharded.FaultResult)
		r.check(checkConserved(fmt.Sprintf("input %d", k), want[k]))
		pass.add(want[k])
	}
	r.exact["shift.delivered"] = int64(pass.Delivered)
	r.exact["shift.dropped"] = int64(pass.Dropped)
	r.exact["shift.cycles"] = int64(pass.Cycles)
	r.exact["shift.hops"] = int64(pass.Hops)
	r.exact["shift.latency_sum"] = int64(pass.LatencySum)
	r.e2e["sim_latency_cycles"] = ratio(float64(pass.LatencySum), float64(pass.Delivered))

	// Timed phase. A traced run rotates each input through untraced
	// sequential, traced sequential and traced sharded runs, one mode
	// after another from op to op.
	type modeStats struct {
		ops, pkts int
		dur, wall time.Duration // the RunOpts calls; whole ops with checks and tracing
		allocs    uint64
	}
	var modes [3]modeStats                     // untraced sequential, traced sequential, traced sharded
	var lat, cpuMS, rates, wallRates []float64 // sequential ops: wall and CPU ms, delivered packets per CPU and per wall second
	var delivered, offered, fallbacks int
	nModes := 1
	if e.trace {
		nModes = 3
	}
	cpu0 := cpuTime()
	start := now()
	limit := time.Duration(e.seconds * float64(time.Second))
	for op := 0; since(start) < limit; op++ {
		k := op % len(ins)
		mode := (k + op/len(ins)) % nModes
		var opts []simnet.RunOption
		if mode < 2 {
			opts = append(opts, simnet.WithShards(1))
		}
		w0 := now()
		root := -1
		var a0 uint64
		if mode > 0 {
			root = tr.begin("bench.op", "bench", -1, int64(op))
			a0 = mallocs()
		}
		r.attempted++
		sp := -1
		if mode > 0 {
			sp = tr.begin("simnet.RunOpts", "simnet", root, int64(op))
		}
		c0, t0 := cpuTime(), now()
		rep, err := nw.RunOpts(ins[k], opts...)
		d, c := since(t0), cpuTime()-c0
		tr.end(sp)
		m := &modes[mode]
		m.ops++
		m.pkts += n
		m.dur += d
		if mode > 0 {
			m.allocs += mallocs() - a0
		}
		if err != nil {
			r.fail("input %d: %v", k, err)
		} else {
			if mode == 2 && rep.ShardFallback {
				fallbacks++
				r.fail("input %d: the sharded run fell back to the sequential engine", k)
			}
			got := summarize(n, rep.FaultResult)
			r.check(checkRun(fmt.Sprintf("input %d", k), got, want[k]))
			if mode < 2 {
				delivered += got.Delivered
				offered += got.Offered
				lat = append(lat, ms(d))
				cpuMS = append(cpuMS, ms(c))
				rates = append(rates, float64(got.Delivered)/c.Seconds())
				wallRates = append(wallRates, float64(got.Delivered)/d.Seconds())
			}
		}
		tr.end(root)
		m.wall += since(w0)
	}

	r.timedPhase(since(start), cpuTime()-cpu0)
	r.e2e["pkts_per_cpu_s"] = median(rates)
	r.layer["bench.pkts_per_wall_s"] = median(wallRates)
	// One goroutine runs each op alone, so its CPU time is its latency
	// without the time the host did not run it.
	r.latency(median(cpuMS), lat)
	r.e2e["delivered_frac"] = ratio(float64(delivered), float64(offered))
	r.e2e["heap_live_mb"] = float64(liveHeap()) / 1e6
	runtime.KeepAlive(ins)
	runtime.KeepAlive(nw)

	if e.trace {
		seq := ratio(float64(modes[1].dur), float64(modes[1].pkts))
		shard := ratio(float64(modes[2].dur), float64(modes[2].pkts))
		r.layer["simnet.shift.ns_per_pkt"] = shard
		r.layer["simnet.shift.allocs_per_op"] = ratio(float64(modes[2].allocs), float64(modes[2].ops))
		r.layer["simnet.shard.fallbacks"] = float64(fallbacks)
		r.layer["simnet.shift.seq_ns_per_pkt"] = seq
		r.layer["simnet.shard.speedup"] = ratio(seq, shard)
		r.layer["sim.hops_per_pkt"] = ratio(float64(pass.Hops), float64(pass.Delivered))
		r.layer["bench.trace_overhead_pct"] = traceOverhead(
			[2]time.Duration{modes[0].wall, modes[1].wall}, [2]int{modes[0].ops, modes[1].ops})
		r.samples["traced.sequential"] = modes[1].ops
		r.samples["traced.sharded"] = modes[2].ops
	}
	return nil
}
