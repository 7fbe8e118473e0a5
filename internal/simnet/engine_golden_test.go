package simnet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

var updateEngineGolden = flag.Bool("update-engine-golden", false, "rewrite the engine behaviour golden files")

// The engine behaviour goldens pin the observable output of the cycle
// engines — full result accounting, the per-packet delivery table, the
// rendered event trace and the OBS_run/v1 metrics document — for a
// matrix of runs that together exercise every engine path: the plain
// unbounded loop, bounded queues with backpressure and admission
// shedding, the fault engine with reroutes and retries (also under
// admission control), a two-Run self-healing session, and a truncated
// run. The plain cases were generated from the packet-at-a-time engine
// and are the byte-identity gate for the arc-major SoA kernel; the
// fault_admission and heal_session cases were recorded from the separate
// fault and heal loops before they merged into one departure-routed
// engine. Any divergence in routing decisions, phase ordering,
// accounting or recording shows up as a golden diff.

// renderEngineRun flattens one run into the diffable golden text.
func renderEngineRun(name string, rep RunReport, doc []byte) string {
	var sb strings.Builder
	r := rep.FaultResult
	fmt.Fprintf(&sb, "case: %s\n", name)
	fmt.Fprintf(&sb, "delivered=%d dropped=%d shed=%d cycles=%d\n", r.Delivered, r.Dropped, r.Shed, r.Cycles)
	fmt.Fprintf(&sb, "totalHops=%d maxHops=%d totalWait=%d meanLatency=%.6f meanHops=%.6f\n",
		r.TotalHops, r.MaxHops, r.TotalWait, r.MeanLatency, r.MeanHops)
	fmt.Fprintf(&sb, "maxQueue=%d hotNode=%d holds=%d peakResident=%d droppedQueueFull=%d\n",
		r.MaxQueue, r.HotNode, r.Holds, r.PeakResident, r.DroppedQueueFull)
	fmt.Fprintf(&sb, "reroutes=%d retries=%d dropTTL=%d dropNoRoute=%d dropFault=%d dropHorizon=%d stuck=%d\n",
		r.Reroutes, r.Retries, r.DroppedTTL, r.DroppedNoRoute, r.DroppedFault, r.DroppedHorizon, r.Stuck)
	sb.WriteString("packets:\n")
	for _, p := range r.Packets {
		fmt.Fprintf(&sb, "  id=%d %d->%d rel=%d del=%d hops=%d\n", p.ID, p.Src, p.Dst, p.Release, p.Delivered, p.Hops)
	}
	sb.WriteString("events:\n")
	for _, e := range rep.Events {
		fmt.Fprintf(&sb, "  %s\n", e.String())
	}
	if doc != nil {
		sb.WriteString("obs:\n")
		sb.Write(doc)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// renderHealRun flattens one SelfHealing.Run: the fault accounting as
// renderEngineRun draws it, then the control-plane counters.
func renderHealRun(name string, hr HealResult, clock int) string {
	var sb strings.Builder
	sb.WriteString(renderEngineRun(name, RunReport{FaultResult: hr.FaultResult}, nil))
	fmt.Fprintf(&sb, "nacks=%d detections=%d events=%d repairs=%d probes=%d epoch=%d converged=%v convergedCycle=%d clock=%d\n",
		hr.Nacks, hr.Detections, hr.EventsCommitted, hr.Repairs, hr.Probes,
		hr.FinalEpoch, hr.Converged, hr.ConvergedCycle, clock)
	return sb.String()
}

// snapshotDoc renders the recorder's OBS_run/v1 document.
func snapshotDoc(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	doc, err := rec.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEngineBehaviourGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, name string) string
	}{
		{
			// The plain unbounded engine under a seeded permutation,
			// traced and instrumented.
			name: "plain_permutation",
			run: func(t *testing.T, name string) string {
				g := debruijn.DeBruijn(3, 4)
				nw := tableNet(t, g)
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(PermutationLoad(),
					WithSeed(42), WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Delivered == 0 {
					t.Fatal("degenerate case: nothing delivered")
				}
				return renderEngineRun(name, rep, snapshotDoc(t, rec))
			},
		},
		{
			// Bounded queues over saturation with admission control:
			// exercises enqFull holds, hold-budget drops, shedding, the
			// congestion-paused token bucket and the source hold queue.
			name: "bounded_admission",
			run: func(t *testing.T, name string) string {
				g := debruijn.DeBruijn(2, 5)
				nw := tableNet(t, g)
				rec := obs.NewRecorder(obs.NewRegistry())
				// An all-to-one funnel: routes to node 0 converge, so
				// bounded queues stay full and hold budgets run out.
				var funnel []Packet
				for i := 1; i < g.N(); i++ {
					funnel = append(funnel, Packet{ID: i, Src: i, Dst: 0, Release: (i % 4)})
				}
				rep, err := nw.RunOpts(Fixed(funnel),
					WithSeed(9),
					WithQueueCapacity(1),
					WithHoldBudget(1),
					WithAdmission(AdmissionConfig{Rate: 5, Burst: 2, MaxDelay: 6}),
					WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Holds == 0 || rep.Shed == 0 || rep.DroppedQueueFull == 0 {
					t.Fatalf("case does not exercise backpressure: holds=%d shed=%d dropQueueFull=%d",
						rep.Holds, rep.Shed, rep.DroppedQueueFull)
				}
				return renderEngineRun(name, rep, snapshotDoc(t, rec))
			},
		},
		{
			// The fault engine under a mixed plan with bounded node
			// queues: reroutes, retries, fault drops and backpressure.
			name: "fault_bounded",
			run: func(t *testing.T, name string) string {
				g := debruijn.DeBruijn(3, 4)
				nw := tableNet(t, g)
				plan := NewFaultPlanFor(g).
					NodeDown(0, 60, 7).
					NodeDown(20, 15, 40).
					LinkDown(5, 40, 3, 1).
					LinkDown(0, 1<<30, 10, 0)
				if err := plan.Err(); err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(UniformLoad(300),
					WithSeed(5),
					WithFaults(plan),
					WithQueueCapacity(2),
					WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Reroutes == 0 || rep.Dropped == 0 {
					t.Fatalf("case does not exercise the fault paths: reroutes=%d dropped=%d", rep.Reroutes, rep.Dropped)
				}
				return renderEngineRun(name, rep, snapshotDoc(t, rec))
			},
		},
		{
			// A truncated plain run: MaxCycles expires with packets still
			// buffered, pinning the no-drain truncation semantics.
			name: "plain_truncated",
			run: func(t *testing.T, name string) string {
				g := debruijn.DeBruijn(2, 5)
				nw, err := NewNetwork(g, WithRouting(TableRouting), WithConfig(Config{HopLatency: 2, MaxCycles: 7}))
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(UniformLoad(200), WithSeed(11), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Delivered == 0 || rep.Delivered+rep.Dropped == 200 {
					t.Fatalf("case does not exercise truncation: delivered=%d dropped=%d", rep.Delivered, rep.Dropped)
				}
				return renderEngineRun(name, rep, snapshotDoc(t, rec))
			},
		},
		{
			// The fault engine with source admission control, traced:
			// shedding, the congestion-paused token bucket and the
			// admission cycle budget under reroutes and fault drops.
			name: "fault_admission",
			run: func(t *testing.T, name string) string {
				g := debruijn.DeBruijn(2, 5)
				nw, err := NewNetwork(g)
				if err != nil {
					t.Fatal(err)
				}
				plan := NewFaultPlanFor(g).
					NodeDown(4, 30, 9).
					LinkDown(0, 50, 1, 0).
					LinkDown(10, 0, 6, 1)
				if err := plan.Err(); err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(RatedLoad(160, 4),
					WithSeed(3),
					WithFaults(plan),
					WithAdmission(AdmissionConfig{Rate: 2, Burst: 3, MaxDelay: 8}),
					WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Shed == 0 || rep.Reroutes == 0 || rep.Dropped == 0 {
					t.Fatalf("case does not exercise admission under faults: shed=%d reroutes=%d dropped=%d",
						rep.Shed, rep.Reroutes, rep.Dropped)
				}
				return renderEngineRun(name, rep, snapshotDoc(t, rec))
			},
		},
		{
			// One self-healing session, two Runs, bounded node queues
			// and a recorder: a transient link fault is detected by
			// NACKs, flooded, repaired and later probed back up while a
			// node fault loses packets in flight. The second Run starts
			// from the session clock and what the first one learned.
			name: "heal_session",
			run: func(t *testing.T, name string) string {
				g := debruijn.DeBruijn(3, 4)
				nw, err := NewNetwork(g)
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				nw.Observe(rec)
				// Arc 0 of node 1 is the base router's first hop from 1
				// to every destination 3..8, so uniform traffic finds it.
				plan := NewFaultPlanFor(g).
					LinkDown(0, 70, 1, 0).
					LinkDown(0, 90, 27, 2).
					NodeDown(5, 40, 67)
				if err := plan.Err(); err != nil {
					t.Fatal(err)
				}
				s, err := nw.SelfHeal(plan, HealConfig{FaultConfig: FaultConfig{QueueCapacity: 2}})
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				var nacks, detections, probes, holds, faultDrops int
				for run, seed := range []int64{5, 6} {
					hr, err := s.Run(UniformRandom(g.N(), 400, seed))
					if err != nil {
						t.Fatal(err)
					}
					nacks += hr.Nacks
					detections += hr.Detections
					probes += hr.Probes
					holds += hr.Holds
					faultDrops += hr.DroppedFault
					sb.WriteString(renderHealRun(fmt.Sprintf("%s/run%d", name, run+1), hr, s.Cycle()))
				}
				if nacks == 0 || detections == 0 || probes == 0 || holds == 0 || faultDrops == 0 {
					t.Fatalf("case does not exercise the heal paths: nacks=%d detections=%d probes=%d holds=%d dropFault=%d",
						nacks, detections, probes, holds, faultDrops)
				}
				sb.WriteString("obs:\n")
				sb.Write(snapshotDoc(t, rec))
				sb.WriteByte('\n')
				return sb.String()
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t, tc.name)
			golden := filepath.Join("testdata", "engine_"+tc.name+".golden")
			if *updateEngineGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-engine-golden to create)", err)
			}
			if !bytes.Equal([]byte(got), want) {
				diffAt := 0
				for diffAt < len(got) && diffAt < len(want) && got[diffAt] == want[diffAt] {
					diffAt++
				}
				lo := diffAt - 200
				if lo < 0 {
					lo = 0
				}
				hi := diffAt + 200
				g, w := got, string(want)
				if hi > len(g) {
					hi = len(g)
				}
				t.Errorf("engine behaviour drifted from golden %s around byte %d:\ngot:  …%s…\nwant: …%s…",
					golden, diffAt, g[lo:hi], w[lo:min(hi, len(w))])
			}
		})
	}
}
