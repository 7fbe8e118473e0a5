package simnet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
	"repro/internal/otis"
)

// TestNewNetworkRoutingModes pins mode resolution: explicit table and
// shift selection, the CustomRouting report for WithRouter, and the
// AutoRouting crossover (small graphs keep the table, large
// congruence-form de Bruijn graphs go table-free, non-de-Bruijn graphs
// always table).
func TestNewNetworkRoutingModes(t *testing.T) {
	small := debruijn.DeBruijn(3, 3)
	if nw, err := NewNetwork(small); err != nil || nw.Routing() != TableRouting {
		t.Fatalf("auto on B(3,3): mode %v err %v, want table", nw.Routing(), err)
	}
	if nw, err := NewNetwork(small, WithRouting(ShiftRouting)); err != nil || nw.Routing() != ShiftRouting {
		t.Fatalf("explicit shift on B(3,3): mode %v err %v", nw.Routing(), err)
	}
	// B(2,13) = 8192 nodes > autoShiftNodes: auto resolves table-free.
	big := debruijn.DeBruijn(2, 13)
	if nw, err := NewNetwork(big); err != nil || nw.Routing() != ShiftRouting {
		t.Fatalf("auto on B(2,13): mode %v err %v, want shift", nw.Routing(), err)
	}
	// OTIS physical graphs are de Bruijn only up to isomorphism, not in
	// congruence labels: auto must keep the table even when large.
	h := otis.MustH(4, 4, 2)
	if nw, err := NewNetwork(h); err != nil || nw.Routing() != TableRouting {
		t.Fatalf("auto on H(2,2,4): mode %v err %v, want table", nw.Routing(), err)
	}
	if nw, err := NewNetwork(small, WithRouter(opaqueRouter{NewTableRouter(small)})); err != nil || nw.Routing() != CustomRouting {
		t.Fatalf("WithRouter: mode %v err %v, want custom", nw.Routing(), err)
	}
}

// TestShiftRoutingMatchesTableOnNetwork is the network-level
// differential: the same workload under WithRouting(TableRouting) and
// WithRouting(ShiftRouting) must produce identical results — the
// shortest-path next arc in congruence form is unique, so the two
// routers never disagree. Beyond the lean kernel it drives every
// general-path configuration the shift kernel's remaining-letters slab
// threads through: bounded queues at 2× saturation (holds, where a
// retry must not consume a letter), a recorder (whose OBS_run/v1
// document must match too), admission control, and a hop latency of 3.
func TestShiftRoutingMatchesTableOnNetwork(t *testing.T) {
	type variant struct {
		name     string
		net      []NetworkOption
		opts     []RunOption
		recorded bool
		rated    bool // 2× saturation rated load instead of 4N uniform
		wantHold bool
	}
	bounded := []RunOption{WithQueueCapacity(2)}
	for _, tc := range []struct{ d, D int }{{2, 6}, {3, 4}, {4, 3}} {
		g := debruijn.DeBruijn(tc.d, tc.D)
		sat, ok := SaturationRate(g)
		if !ok {
			t.Fatalf("B(%d,%d): no saturation rate", tc.d, tc.D)
		}
		for _, v := range []variant{
			{name: "lean"},
			{name: "bounded", opts: bounded, rated: true, wantHold: true},
			{name: "recorded", recorded: true},
			{name: "bounded+recorded", opts: bounded, rated: true, recorded: true, wantHold: true},
			{name: "admission", opts: []RunOption{WithQueueCapacity(2), WithAdmission(AdmissionConfig{Rate: sat})}, rated: true},
			{name: "hop3", net: []NetworkOption{WithHopLatency(3)}},
			{name: "hop3+bounded", net: []NetworkOption{WithHopLatency(3)}, opts: bounded, rated: true, wantHold: true},
		} {
			for _, seed := range []int64{1, 9} {
				run := func(mode RoutingMode) (RunReport, []byte) {
					nw, err := NewNetwork(g, append([]NetworkOption{WithRouting(mode)}, v.net...)...)
					if err != nil {
						t.Fatal(err)
					}
					var load Workload = UniformLoad(4 * g.N())
					if v.rated {
						load = RatedLoad(8*g.N(), 2*sat)
					}
					opts := append([]RunOption{WithSeed(seed)}, v.opts...)
					var rec *obs.Recorder
					if v.recorded {
						rec = obs.NewRecorder(obs.NewRegistry())
						opts = append(opts, WithRecorder(rec))
					}
					rep, err := nw.RunOpts(load, opts...)
					if err != nil {
						t.Fatal(err)
					}
					var doc []byte
					if rec != nil {
						if doc, err = rec.Snapshot().MarshalIndent(); err != nil {
							t.Fatal(err)
						}
					}
					return rep, doc
				}
				a, docA := run(TableRouting)
				b, docB := run(ShiftRouting)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("B(%d,%d) %s seed %d: shift routing diverged from table routing:\n%v\n%v",
						tc.d, tc.D, v.name, seed, a.Result, b.Result)
				}
				if !bytes.Equal(docA, docB) {
					t.Fatalf("B(%d,%d) %s seed %d: OBS_run/v1 documents differ", tc.d, tc.D, v.name, seed)
				}
				if v.wantHold && a.Holds == 0 {
					t.Fatalf("B(%d,%d) %s seed %d: no holds; the case does not exercise backpressure",
						tc.d, tc.D, v.name, seed)
				}
			}
		}
	}
}

// TestNewNetworkOptionErrors is the eager-validation table for the
// construction options.
func TestNewNetworkOptionErrors(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	h := otis.MustH(2, 2, 2)
	cases := []struct {
		name   string
		opts   []NetworkOption
		graph  *digraph.Digraph
		option string
	}{
		{"shift on non-de-Bruijn", []NetworkOption{WithRouting(ShiftRouting)}, h, "WithRouting(ShiftRouting)"},
		{"duplicate routing", []NetworkOption{WithRouting(TableRouting), WithRouting(ShiftRouting)}, g, "WithRouting"},
		{"custom via WithRouting", []NetworkOption{WithRouting(CustomRouting)}, g, "WithRouting"},
		{"unknown mode", []NetworkOption{WithRouting(RoutingMode(99))}, g, "WithRouting"},
		{"nil router", []NetworkOption{WithRouter(nil)}, g, "WithRouter"},
		{"router+routing", []NetworkOption{WithRouter(NewTableRouter(g)), WithRouting(TableRouting)}, g, "WithRouter"},
		{"duplicate router", []NetworkOption{WithRouter(NewTableRouter(g)), WithRouter(NewTableRouter(g))}, g, "WithRouter"},
		{"hop latency 0", []NetworkOption{WithHopLatency(0)}, g, "WithHopLatency"},
		{"duplicate hop latency", []NetworkOption{WithHopLatency(2), WithHopLatency(3)}, g, "WithHopLatency"},
		{"negative max cycles", []NetworkOption{WithMaxCycles(-1)}, g, "WithMaxCycles"},
		{"bad config", []NetworkOption{WithConfig(Config{})}, g, "WithConfig"},
		{"config+hop", []NetworkOption{WithHopLatency(2), WithConfig(DefaultConfig())}, g, "WithConfig"},
		{"bad run default", []NetworkOption{WithQueueCapacity(0)}, g, "WithQueueCapacity"},
		{"shards beyond nodes", []NetworkOption{WithShards(g.N() + 1)}, g, "WithShards"},
	}
	for _, tc := range cases {
		_, err := NewNetwork(tc.graph, tc.opts...)
		var oe *OptionError
		if err == nil || !errors.As(err, &oe) {
			t.Fatalf("%s: want *OptionError, got %v", tc.name, err)
		}
		if oe.Option != tc.option {
			t.Fatalf("%s: error names %q, want %q", tc.name, oe.Option, tc.option)
		}
	}
}

// TestNetworkRunDefaults pins the merge rule: RunOptions given to
// NewNetwork act as defaults for every run, overridden field by field
// by per-run options.
func TestNetworkRunDefaults(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	plain, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	// Seed default at construction: RunOpts with no options uses it.
	seeded, err := NewNetwork(g, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunOpts(UniformLoad(64), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := seeded.RunOpts(UniformLoad(64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("network-default WithSeed(7) not applied")
	}
	// Per-run override wins.
	want, err = plain.RunOpts(UniformLoad(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err = seeded.RunOpts(UniformLoad(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("per-run WithSeed(3) did not override the network default")
	}
	// A qcap default changes engine behaviour for plain Run too.
	bounded, err := NewNetwork(g, WithQueueCapacity(1), WithHoldBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	pkts := UniformRandom(g.N(), 6*g.N(), 5)
	wantB, err := plain.RunOpts(Fixed(pkts), WithQueueCapacity(1), WithHoldBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotB := runFixed(t, bounded, pkts); !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("network-default queue bound not applied")
	}
	if wantB.Holds == 0 && wantB.DroppedQueueFull == 0 {
		t.Fatalf("bounded default produced no backpressure; test not exercising the bound")
	}

	// A whole Config folded in by WithConfig acts like the per-field
	// construction options and the per-run queue options it mirrors.
	g3 := debruijn.DeBruijn(3, 3)
	pkts3 := UniformRandom(g3.N(), 3*g3.N(), 17)
	for _, tc := range []struct {
		name  string
		cfg   Config
		equiv []NetworkOption
		run   []RunOption
	}{
		{"hop2", Config{HopLatency: 2}, []NetworkOption{WithHopLatency(2)}, nil},
		{"bounded", Config{HopLatency: 1, QueueCapacity: 2, HoldBudget: 8}, nil,
			[]RunOption{WithQueueCapacity(2), WithHoldBudget(8)}},
		{"capped", Config{HopLatency: 1, MaxCycles: 40}, []NetworkOption{WithMaxCycles(40)}, nil},
	} {
		viaCfg, err := NewNetwork(g3, WithConfig(tc.cfg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		viaOpts, err := NewNetwork(g3, tc.equiv...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, got := runFixed(t, viaOpts, pkts3, tc.run...), runFixed(t, viaCfg, pkts3)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: WithConfig(%+v) diverged from its option equivalent", tc.name, tc.cfg)
		}
	}
}
