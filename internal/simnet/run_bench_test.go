package simnet

import (
	"fmt"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// BenchmarkPermutationRun is the package-local twin of the cmd/bench
// permutation entries: one seeded permutation per op on a shared
// Network (arena warm), uninstrumented — the delivered-packets/sec
// hot path this PR's arc-major kernel targets.
func BenchmarkPermutationRun(b *testing.B) {
	for _, sz := range []struct{ d, D int }{{3, 5}, {3, 6}, {3, 7}} {
		b.Run(fmt.Sprintf("B(%d,%d)", sz.d, sz.D), func(b *testing.B) {
			g := debruijn.DeBruijn(sz.d, sz.D)
			nw, err := NewNetwork(g, WithRouting(TableRouting))
			if err != nil {
				b.Fatal(err)
			}
			pkts := Permutation(g.N(), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runFixed(b, nw, pkts).Result
				if res.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/pkt")
		})
	}
}

// BenchmarkShiftRun times one seeded permutation per op on B(2,12)
// under table routing and under table-free shift routing (one overlap
// search per packet at injection, then one digit extraction per hop),
// on the same workload, so the two routing modes compare on one
// machine. Both report ns/pkt.
func BenchmarkShiftRun(b *testing.B) {
	g := debruijn.DeBruijn(2, 12)
	pkts := Permutation(g.N(), 1)
	for _, mode := range []RoutingMode{TableRouting, ShiftRouting} {
		b.Run(mode.String(), func(b *testing.B) {
			nw, err := NewNetwork(g, WithRouting(mode))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runFixed(b, nw, pkts).Result
				if res.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/pkt")
		})
	}
}

// BenchmarkReferencePermutationRun runs the same workloads through the
// frozen packet-at-a-time engine (refRun, the equivalence oracle in
// engine_reference_test.go), so the arc-major kernel's speedup is
// measurable on one machine instead of compared across commits.
func BenchmarkReferencePermutationRun(b *testing.B) {
	for _, sz := range []struct{ d, D int }{{3, 5}, {3, 6}, {3, 7}} {
		b.Run(fmt.Sprintf("B(%d,%d)", sz.d, sz.D), func(b *testing.B) {
			g := debruijn.DeBruijn(sz.d, sz.D)
			nw, err := NewNetwork(g, WithRouting(TableRouting))
			if err != nil {
				b.Fatal(err)
			}
			pkts := Permutation(g.N(), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := refRun(nw, pkts, runTuning{}, nil)
				if res.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/pkt")
		})
	}
}

// BenchmarkTableRouter times the routing-table fill on B(3,7): a
// from-scratch NewTableRouter (build), and Repair of the busiest arc,
// the one whose tail routes the most destinations over it (repair,
// the self-healing layer's per-epoch cost, as in perfbench's
// kernel-b37 fault plan).
func BenchmarkTableRouter(b *testing.B) {
	benchTableFill(b, NewTableRouter, (*TableRouter).Repair)
	// The sparse patch alone: what a self-healing session builds and
	// keeps per epoch.
	g := debruijn.DeBruijn(3, 7)
	base := NewTableRouter(g)
	dead := []Arc{busiestArc(g, base)}
	c := newTableCSR(g)
	b.Run("patch/B(3,7)", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := base.repairPatch(c, g, dead)
			if err != nil {
				b.Fatal(err)
			}
			patchSink = p
		}
	})
}

// patchSink keeps the benchmarked patches from being optimized away.
var patchSink *slabPatch

// BenchmarkReferenceTableRouter runs the same two fills through the
// frozen per-destination BFS (table_reference_test.go), so the sweep's
// speedup is measurable on one machine.
func BenchmarkReferenceTableRouter(b *testing.B) {
	benchTableFill(b, refTableRouter, refRepair)
}

func benchTableFill(b *testing.B, build func(*digraph.Digraph) *TableRouter, repair func(*TableRouter, *digraph.Digraph, []Arc) (*TableRouter, error)) {
	g := debruijn.DeBruijn(3, 7)
	base := NewTableRouter(g)
	dead := []Arc{busiestArc(g, base)}
	b.Run("build/B(3,7)", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tableSink = build(g)
		}
	})
	b.Run("repair/B(3,7)", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := repair(base, g, dead)
			if err != nil {
				b.Fatal(err)
			}
			tableSink = r
		}
	})
}

// tableSink keeps the benchmarked fills from being optimized away.
var tableSink *TableRouter

// busiestArc returns the arc that r routes the most destinations over.
func busiestArc(g *digraph.Digraph, r *TableRouter) Arc {
	var best Arc
	bestCount := -1
	for u := 0; u < g.N(); u++ {
		count := make([]int, g.OutDegree(u))
		for dst := 0; dst < g.N(); dst++ {
			if k := r.NextArc(u, dst); k >= 0 {
				count[k]++
			}
		}
		for k, c := range count {
			if c > bestCount {
				best, bestCount = Arc{Tail: u, Index: k}, c
			}
		}
	}
	return best
}
