package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// Property tests of the bit-parallel table fill against the frozen
// per-destination BFS (table_reference_test.go): NewTableRouter and
// Repair must reproduce the reference slabs bit for bit, tie-breaks
// included, on every graph shape the sweep has a separate path for —
// block edges (n around multiples of 64), loops, parallel arcs, sinks
// and unreachable pairs, the wide int32 layout, and dead sets that cut
// a node off entirely.

// randomDigraph draws n nodes with out-degree 0..maxDeg each and
// uniform heads, so loops, parallel arcs, sinks and (for small degrees)
// unreachable pairs all occur.
func randomDigraph(rng *rand.Rand, n, maxDeg int) *digraph.Digraph {
	g := digraph.New(n)
	for u := 0; u < n; u++ {
		for k := rng.Intn(maxDeg + 1); k > 0; k-- {
			g.AddArc(u, rng.Intn(n))
		}
	}
	return g
}

// layeredDigraph forces ties: nodes sit in layers of width w, and each
// node has several arcs into the layer below (shuffled, with repeats)
// plus a few arbitrary ones, so most pairs have several shortest next
// hops whose parents differ.
func layeredDigraph(rng *rand.Rand, n, w int) *digraph.Digraph {
	g := digraph.New(n)
	for u := 0; u < n; u++ {
		below := u/w*w - w
		for k := 0; k < 3; k++ {
			if below >= 0 {
				g.AddArc(u, below+rng.Intn(w))
			}
			if rng.Intn(3) == 0 {
				g.AddArc(u, rng.Intn(n))
			}
		}
	}
	return g
}

// wideDigraph gives node 0 an out-degree beyond int8 (parallel arcs to
// every node, in shuffled order), so the router takes the int32 layout.
func wideDigraph(rng *rand.Rand, n int) *digraph.Digraph {
	g := digraph.New(n)
	for k := 0; k < 200; k++ {
		g.AddArc(0, rng.Intn(n))
	}
	for u := 1; u < n; u++ {
		for k := rng.Intn(4); k > 0; k-- {
			g.AddArc(u, rng.Intn(n))
		}
	}
	return g
}

// distanceTies counts pairs (u, dst) at distance ≥ 2 with two or more
// distinct shortest next hops — the pairs whose arc depends on the BFS
// queue order and not just on distances.
func distanceTies(g *digraph.Digraph) int {
	n := g.N()
	dist := g.DistanceSlab()
	ties := 0
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			du := dist[u*n+dst]
			if du < 2 || du == digraph.Unreachable {
				continue
			}
			heads := map[int]bool{}
			for _, v := range g.Out(u) {
				if dist[v*n+dst] == du-1 {
					heads[v] = true
				}
			}
			if len(heads) > 1 {
				ties++
			}
		}
	}
	return ties
}

// randomDeadSets draws dead sets of 1–6 arcs: arbitrary arcs (loops
// included), every out-arc of one node, and every loop of the graph.
func randomDeadSets(rng *rand.Rand, g *digraph.Digraph, trials int) [][]Arc {
	var all, loops []Arc
	for u := 0; u < g.N(); u++ {
		for k, v := range g.Out(u) {
			all = append(all, Arc{Tail: u, Index: k})
			if v == u {
				loops = append(loops, Arc{Tail: u, Index: k})
			}
		}
	}
	if len(all) == 0 {
		return nil
	}
	var sets [][]Arc
	if len(loops) > 0 {
		sets = append(sets, loops)
	}
	for trial := 0; trial < trials; trial++ {
		if trial%4 == 3 {
			u := rng.Intn(g.N())
			var node []Arc
			for k := range g.Out(u) {
				node = append(node, Arc{Tail: u, Index: k})
			}
			if len(node) > 0 {
				sets = append(sets, node)
			}
			continue
		}
		picked := map[Arc]bool{}
		var dead []Arc
		for want := 1 + rng.Intn(6); len(dead) < want && len(dead) < len(all); {
			a := all[rng.Intn(len(all))]
			if !picked[a] {
				picked[a] = true
				dead = append(dead, a)
			}
		}
		sets = append(sets, dead)
	}
	return sets
}

// checkAgainstReference asserts NewTableRouter(g) and Repair over each
// dead set, and over the empty one, DeepEqual the frozen reference, and
// that the sparse patch behind each repair reproduces it too.
func checkAgainstReference(t *testing.T, name string, g *digraph.Digraph, deadSets [][]Arc) {
	t.Helper()
	want := refTableRouter(g)
	got := NewTableRouter(g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: NewTableRouter differs from the reference BFS", name)
	}
	c := newTableCSR(g)
	for _, dead := range append(deadSets, nil) {
		wantR, err := refRepair(want, g, dead)
		if err != nil {
			t.Fatalf("%s dead %v: reference: %v", name, dead, err)
		}
		gotR, err := got.Repair(g, dead)
		if err != nil {
			t.Fatalf("%s dead %v: %v", name, dead, err)
		}
		if !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("%s dead %v: Repair differs from the reference", name, dead)
		}
		p, err := got.repairPatch(c, g, dead)
		if err != nil {
			t.Fatalf("%s dead %v: %v", name, dead, err)
		}
		checkPatch(t, fmt.Sprintf("%s dead %v", name, dead), g, got, p, wantR, dead)
	}
}

// patchBytes returns the bytes patch p holds.
func patchBytes(p *slabPatch) int {
	return 4*(len(p.rowOff)+len(p.dst)+len(p.wide)) + len(p.arcs)
}

// checkPatch asserts that patch p over base reads like want for every
// pair, through the lookup the self-healing engine uses; that it holds
// only entries differing from base, in ascending destination order per
// row; and that a dead set of loops only (or none) gives an empty patch
// with no row index.
func checkPatch(t *testing.T, tag string, g *digraph.Digraph, base *TableRouter, p *slabPatch, want *TableRouter, dead []Arc) {
	t.Helper()
	n := g.N()
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			arc, ok := p.lookup(u, dst)
			if !ok {
				arc = base.NextArc(u, dst)
			} else if arc == base.NextArc(u, dst) {
				t.Fatalf("%s: patch holds (%d,%d) = %d, unchanged from the base", tag, u, dst, arc)
			}
			if arc != want.NextArc(u, dst) {
				t.Fatalf("%s: base+patch (%d,%d) = %d, reference %d", tag, u, dst, arc, want.NextArc(u, dst))
			}
		}
	}
	if p.rowOff != nil {
		for u := 0; u < n; u++ {
			for i := p.rowOff[u] + 1; i < p.rowOff[u+1]; i++ {
				if p.dst[i] <= p.dst[i-1] {
					t.Fatalf("%s: row %d destinations not ascending", tag, u)
				}
			}
		}
		if int(p.rowOff[n]) != len(p.dst) || len(p.arcs)+len(p.wide) != len(p.dst) {
			t.Fatalf("%s: patch CSR lengths disagree", tag)
		}
	}
	loopsOnly := true
	for _, a := range dead {
		loopsOnly = loopsOnly && g.Out(a.Tail)[a.Index] == a.Tail
	}
	if loopsOnly && (p.rowOff != nil || patchBytes(p) != 0) {
		t.Fatalf("%s: loops-only dead set built a %d-byte patch, want an empty one", tag, patchBytes(p))
	}
}

// TestTableFillMatchesReferenceCatalog: every catalog graph and a few
// larger de Bruijn graphs, under every single-arc dead set and seeded
// multi-arc ones.
func TestTableFillMatchesReferenceCatalog(t *testing.T) {
	graphs := catalogGraphs(t)
	graphs["B(2,7)"] = debruijn.DeBruijn(2, 7)
	graphs["B(3,4)"] = debruijn.DeBruijn(3, 4)
	graphs["B(4,3)"] = debruijn.DeBruijn(4, 3)
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(5))
		deadSets := randomDeadSets(rng, g, 24)
		for u := 0; u < g.N(); u++ {
			for k := range g.Out(u) {
				deadSets = append(deadSets, []Arc{{Tail: u, Index: k}})
			}
		}
		checkAgainstReference(t, name, g, deadSets)
	}
}

// TestTableFillMatchesReferenceRandom: seeded random, tie-heavy and
// wide digraphs, with n on both sides of the 64-destination block
// edges.
func TestTableFillMatchesReferenceRandom(t *testing.T) {
	ties := 0
	for _, n := range []int{1, 2, 7, 63, 64, 65, 129} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			shapes := map[string]*digraph.Digraph{
				"sparse":  randomDigraph(rng, n, 2),
				"dense":   randomDigraph(rng, n, 6),
				"layered": layeredDigraph(rng, n, 1+rng.Intn(8)),
				"wide":    wideDigraph(rng, n),
			}
			for shape, g := range shapes {
				name := fmt.Sprintf("%s n=%d seed=%d", shape, n, seed)
				if shape == "wide" && NewTableRouter(g).wide == nil {
					t.Fatalf("%s: expected the int32 layout", name)
				}
				ties += distanceTies(g)
				checkAgainstReference(t, name, g, randomDeadSets(rng, g, 12))
			}
		}
	}
	if ties == 0 {
		t.Fatal("no graph had a queue-order tie; the tie-break went unchecked")
	}
}
