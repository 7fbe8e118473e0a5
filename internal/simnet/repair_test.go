package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/digraph"
)

// TableRouter.Repair mirrors debruijn.RepairSlab on the arc-index slab;
// its contract is the same bit-identity against a from-scratch build on
// the residual digraph.

// residualDigraph rebuilds g minus the dead arcs, preserving adjacency
// order of the survivors.
func residualDigraph(g *digraph.Digraph, dead []Arc) *digraph.Digraph {
	mask := map[Arc]bool{}
	for _, a := range dead {
		mask[a] = true
	}
	h := digraph.New(g.N())
	for u := 0; u < g.N(); u++ {
		for k, v := range g.Out(u) {
			if mask[Arc{Tail: u, Index: k}] {
				continue
			}
			h.AddArc(u, v)
		}
	}
	return h
}

// residualRouterEquals checks the repaired slab against NewTableRouter
// on the residual digraph. The residual keeps surviving arcs at shifted
// adjacency positions, so the comparison translates: for every pair the
// two routers must pick the same physical arc (same flat position among
// survivors), not merely the same head.
func repairedEqualsScratch(t *testing.T, g *digraph.Digraph, got Router, dead []Arc) {
	t.Helper()
	residual := residualDigraph(g, dead)
	want := NewTableRouter(residual)
	mask := map[Arc]bool{}
	for _, a := range dead {
		mask[a] = true
	}
	n := g.N()
	// shift[u][k] maps g's arc position to residual's, -1 for dead arcs.
	for u := 0; u < n; u++ {
		shift := make([]int, g.OutDegree(u))
		live := 0
		for k := range g.Out(u) {
			if mask[Arc{Tail: u, Index: k}] {
				shift[k] = -1
				continue
			}
			shift[k] = live
			live++
		}
		for dst := 0; dst < n; dst++ {
			gotArc := got.NextArc(u, dst)
			wantArc := want.NextArc(u, dst)
			switch {
			case gotArc < 0:
				if wantArc >= 0 {
					t.Fatalf("dead %v: (%d,%d) repaired says unreachable, scratch routes arc %d", dead, u, dst, wantArc)
				}
			case shift[gotArc] != wantArc:
				t.Fatalf("dead %v: (%d,%d) repaired arc %d (residual pos %d) != scratch arc %d", dead, u, dst, gotArc, shift[gotArc], wantArc)
			}
		}
	}
}

// TestTableRouterRepairEverySingleArc: every single-arc fault of every
// catalog graph repairs to exactly the from-scratch residual router.
func TestTableRouterRepairEverySingleArc(t *testing.T) {
	for name, g := range catalogGraphs(t) {
		base := NewTableRouter(g)
		for u := 0; u < g.N(); u++ {
			for k := 0; k < g.OutDegree(u); k++ {
				dead := []Arc{{Tail: u, Index: k}}
				got, err := base.Repair(g, dead)
				if err != nil {
					t.Fatalf("%s arc (%d#%d): %v", name, u, k, err)
				}
				repairedEqualsScratch(t, g, got, dead)
			}
		}
	}
}

// TestTableRouterRepairRandomFaultSets: seeded multi-arc fault sets.
func TestTableRouterRepairRandomFaultSets(t *testing.T) {
	for name, g := range catalogGraphs(t) {
		rng := rand.New(rand.NewSource(11))
		base := NewTableRouter(g)
		for trial := 0; trial < 20; trial++ {
			seen := map[Arc]bool{}
			var dead []Arc
			for len(dead) < 1+rng.Intn(4) {
				u := rng.Intn(g.N())
				if g.OutDegree(u) == 0 {
					continue
				}
				a := Arc{Tail: u, Index: rng.Intn(g.OutDegree(u))}
				if seen[a] {
					continue
				}
				seen[a] = true
				dead = append(dead, a)
			}
			got, err := base.Repair(g, dead)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			repairedEqualsScratch(t, g, got, dead)
		}
	}
}

// TestTableRouterRepairIdentityAndErrors: the empty dead set reproduces
// the base slab in fresh storage; bad inputs are rejected.
func TestTableRouterRepairIdentityAndErrors(t *testing.T) {
	g := catalogGraphs(t)["B(2,4)"]
	base := NewTableRouter(g)
	same, err := base.Repair(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same.arcs, base.arcs) {
		t.Fatal("empty dead set did not reproduce the base router")
	}
	if &same.arcs[0] == &base.arcs[0] {
		t.Fatal("Repair must not alias the base router's storage")
	}
	var nilRouter *TableRouter
	if _, err := nilRouter.Repair(g, nil); err == nil {
		t.Fatal("nil receiver accepted")
	}
	other := NewTableRouter(catalogGraphs(t)["B(3,3)"])
	if _, err := other.Repair(g, nil); err == nil {
		t.Fatal("mismatched router accepted")
	}
	for _, dead := range [][]Arc{
		{{Tail: -1, Index: 0}},
		{{Tail: g.N(), Index: 0}},
		{{Tail: 0, Index: -1}},
		{{Tail: 0, Index: g.OutDegree(0)}},
	} {
		if _, err := base.Repair(g, dead); err == nil {
			t.Fatalf("out-of-range dead arc %v accepted", dead)
		}
	}
}
