package main

// metricDef names one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON
// keeps them in step): an untraced run prints every endToEnd metric, a
// traced run every perLayer metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator or the service sees.
// Each workload reports all of them; README.md says what each means on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_cpu_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"sim_latency_cycles", "cycles"},
	{"delivered_frac", "ratio"},
	{"heap_live_mb", "MB"},
}

// kernelVariants are the six RunOpts call shapes kernel-b37 cycles
// through, in op order.
var kernelVariants = []string{"plain", "uniform", "recorded", "bounded", "faulted", "healed"}

// layers are the repository modules a traced run attributes self time
// to; "bench" is the benchmark's own work around the calls.
var layers = []string{"bench", "debruijn", "simnet", "obs", "serve", "cmdserve"}

// perLayer are the traced-run metrics. A layer a workload leaves idle
// reports 0 (README.md maps every metric to the workload that moves it).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"debruijn.build_ms", "ms"},
		{"debruijn.recognize_ms", "ms"},
		{"simnet.network_build_ms", "ms"},
		{"simnet.router_mb", "MB"},
	}
	for _, v := range kernelVariants {
		defs = append(defs,
			metricDef{"simnet." + v + ".ns_per_pkt", "ns/pkt"},
			metricDef{"simnet." + v + ".allocs_per_op", "count"},
			metricDef{"simnet." + v + ".time_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"obs.overhead_ratio", "ratio"},
		metricDef{"simnet.fault_overhead_ratio", "ratio"},
		metricDef{"simnet.heal_overhead_ratio", "ratio"},
		metricDef{"simnet.healed.open_us", "us"},
		metricDef{"simnet.bounded.holds", "count"},
		metricDef{"simnet.faulted.reroutes", "count"},
		metricDef{"simnet.faulted.retries", "count"},
		metricDef{"simnet.healed.nacks", "count"},
		metricDef{"simnet.healed.repairs", "count"},
		metricDef{"simnet.shift.ns_per_pkt", "ns/pkt"},
		metricDef{"simnet.shift.allocs_per_op", "count"},
		metricDef{"simnet.shard.fallbacks", "count"},
		metricDef{"simnet.shift.seq_ns_per_pkt", "ns/pkt"},
		metricDef{"simnet.shard.speedup", "ratio"},
		metricDef{"sim.hops_per_pkt", "hops"},
		metricDef{"serve.submit.p50_us", "us"},
		metricDef{"serve.submit.p99_us", "us"},
		metricDef{"serve.heal.repairs", "count"},
		metricDef{"serve.heal.events", "count"},
		metricDef{"serve.heal.nacks", "count"},
		metricDef{"serve.chaos_faults", "count"},
		metricDef{"serve.heap_slope_kb_per_kreq", "KB/kreq"},
		metricDef{"serve.drain_ms", "ms"},
		metricDef{"cmdserve.overhead.p50_us", "us"},
		metricDef{"cmdserve.create.p50_us", "us"},
		metricDef{"cmdserve.close.p50_us", "us"},
		metricDef{"cmdserve.resp_bytes", "bytes"},
		metricDef{"cmdserve.server_cpu_us_per_req", "us/req"},
		metricDef{"bench.client_cpu_us_per_req", "us/req"},
		metricDef{"bench.pkts_per_wall_s", "1/s"},
		metricDef{"bench.req_tail_ms", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"selftime." + l + ".share", "ratio"})
	}
	return defs
}()
