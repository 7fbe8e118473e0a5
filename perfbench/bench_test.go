package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// The metric tables and the workload list are the benchmark's contract
// with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	compare := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// kernel-b37: every variant keeps the accounting identity, and a
// corrupted result is rejected by each check.
func TestKernelChecksRejectCorruption(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	nw, err := simnet.NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := kernelInputsFor(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range kernelVariants {
		op, err := runVariant(nw, v, &ins[0], nil, -1, 0)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if err := checkRun(v, op.sum, op.sum); err != nil {
			t.Errorf("%s: an intact result is rejected: %v", v, err)
		}
		lost := op.sum
		lost.Delivered--
		if checkRun(v, lost, op.sum) == nil {
			t.Errorf("%s: a lost packet passes the accounting check", v)
		}
		slow := op.sum
		slow.Cycles++
		if checkRun(v, slow, op.sum) == nil {
			t.Errorf("%s: a changed cycle count passes the first-pass comparison", v)
		}
	}
	plain, err1 := runVariant(nw, "plain", &ins[0], nil, -1, 0)
	rec, err2 := runVariant(nw, "recorded", &ins[0], nil, -1, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if err := checkSameResult("plain/recorded", plain.res, rec.res); err != nil {
		t.Fatalf("intact plain and recorded results differ: %v", err)
	}
	rec.res.Packets = append([]simnet.Packet(nil), rec.res.Packets...)
	rec.res.Packets[0].Delivered++
	if checkSameResult("plain/recorded", plain.res, rec.res) == nil {
		t.Error("a recorded run with one packet delivered late passes as identical")
	}
}

// shift-b216: a sharded result that differs from the sequential engine,
// or that fell back to it, is rejected.
func TestShiftChecksRejectCorruption(t *testing.T) {
	g := debruijn.DeBruijn(2, 7)
	nw, err := simnet.NewNetwork(g, simnet.WithRouting(simnet.ShiftRouting), simnet.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	perm := simnet.Fixed(simnet.Permutation(g.N(), 3))
	sharded, err1 := nw.RunOpts(perm)
	seq, err2 := nw.RunOpts(perm, simnet.WithShards(1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if err := checkShardEqual("intact", sharded, seq); err != nil {
		t.Fatalf("an intact sharded result is rejected: %v", err)
	}
	bad := sharded
	bad.Packets = append([]simnet.Packet(nil), sharded.Packets...)
	bad.Packets[len(bad.Packets)-1].Hops++
	if checkShardEqual("corrupt", bad, seq) == nil {
		t.Error("a sharded result with one packet's hops changed passes")
	}
	fell := sharded
	fell.ShardFallback = true
	if checkShardEqual("fallback", fell, seq) == nil {
		t.Error("a run that fell back to the sequential engine passes")
	}
}

// serve-http: a corrupted outcome, SLO document or client tally is
// rejected.
func TestServeChecksRejectCorruption(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	sched, err := serve.New(g, serve.Config{ChaosSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Start(1); err != nil {
		t.Fatal(err)
	}
	var sum tally
	for i := 0; i < 3; i++ {
		sid, err := sched.CreateSession(serve.TenantConfig{Tenant: "t"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := sched.Submit(sid, simnet.UniformRandom(g.N(), servePackets, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tl, err := checkOutcome(out, servePackets)
		if err != nil {
			t.Fatalf("an intact outcome is rejected: %v", err)
		}
		sum.add(tl)
		lost := out
		lost.Heal.Delivered--
		if _, err := checkOutcome(lost, servePackets); err == nil {
			t.Error("an outcome missing a packet passes")
		}
		odd := out
		odd.Status = "maybe"
		if _, err := checkOutcome(odd, servePackets); err == nil {
			t.Error("an outcome with an unknown status passes")
		}
	}
	if _, err := sched.Shutdown(); err != nil {
		t.Fatal(err)
	}
	data, err := sched.SLOReport().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parseSLO(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSLO(rep, sum); err != nil {
		t.Fatalf("an intact SLO report is rejected: %v", err)
	}
	short := sum
	short.Delivered++
	if checkSLO(rep, short) == nil {
		t.Error("an SLO report whose totals disagree with the client sums passes")
	}
	broken := bytes.Replace(data, []byte(`"schema": "SLO_report/v1"`), []byte(`"schema": "SLO_report/v0"`), 1)
	if _, err := parseSLO(broken); bytes.Equal(broken, data) || err == nil {
		t.Error("an SLO report with a wrong schema passes")
	}
}

func TestParseHeapAlloc(t *testing.T) {
	got, err := parseHeapAlloc([]byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n# runtime.MemStats\n# Alloc = 5\n# HeapAlloc = 123456\n"))
	if err != nil || got != 123456 {
		t.Fatalf("parseHeapAlloc = %v, %v; want 123456", got, err)
	}
	if _, err := parseHeapAlloc([]byte("no stats here")); err == nil {
		t.Error("a profile without HeapAlloc parses")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("123456789 4242 17\n"))
	if err != nil || got != 123456789 {
		t.Fatalf("parseSchedstat = %v, %v; want 123456789ns", got, err)
	}
	if _, err := parseSchedstat([]byte("12 34\n")); err == nil {
		t.Error("a schedstat line with two fields parses")
	}
}

// Self time: a span's duration minus its children, with a
// server-reported duration moved to the serve layer.
func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.request", Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Name: "cmdserve.POST /v1/run", Layer: "cmdserve", Start: 10, End: 60, Parent: 0,
			Attrs: map[string]int64{serverAttr: 20}},
	}}
	other := &tracer{spans: []span{{Name: "simnet.RunOpts", Layer: "simnet", Start: 0, End: 7, Parent: -1}}}
	tr.merge(other)
	got := tr.selfTime()
	want := map[string]int64{"bench": 50, "cmdserve": 30, "serve": 20, "simnet": 7}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("self time of %s = %d, want %d (all: %v)", l, got[l], ns, got)
		}
	}
	if p := tr.spans[2].Parent; p != -1 {
		t.Errorf("merged root span has parent %d", p)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2}, 0.99); got < 1.98 || got > 2 {
		t.Errorf("p99 of {1,2} = %v", got)
	}
	if got := slope([]float64{1, 2, 3}, []float64{2, 4, 6}); got != 2 {
		t.Errorf("slope = %v, want 2", got)
	}
	if !strings.Contains(workloadNames(), "serve-http") {
		t.Error("workloadNames misses serve-http")
	}
}
