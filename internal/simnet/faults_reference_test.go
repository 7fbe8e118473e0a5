package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// The reference FaultState: a frozen copy of the map-based compiled
// plan that FaultPlan.Compile built before the flat per-tail span slabs
// replaced it, kept as a differential oracle. Every query answers from
// Go maps keyed by Arc and node, exactly as the historical code did.

type refFaultState struct {
	arcSpans   map[Arc][]span
	nodeSpans  map[int][]span
	permStarts []int
	cycle      int
}

// refCompile is the historical FaultPlan.Compile.
func refCompile(p *FaultPlan, g *digraph.Digraph) (*refFaultState, error) {
	st := &refFaultState{
		arcSpans:  map[Arc][]span{},
		nodeSpans: map[int][]span{},
		cycle:     -1,
	}
	if p == nil {
		return st, nil
	}
	if p.err != nil {
		return nil, p.err
	}
	n := g.N()
	addArc := func(a Arc, sp span) error {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return fmt.Errorf("simnet: fault arc (%d#%d) out of range", a.Tail, a.Index)
		}
		st.arcSpans[a] = append(st.arcSpans[a], sp)
		if sp.end < 0 {
			st.permStarts = append(st.permStarts, sp.start)
		}
		return nil
	}
	for _, f := range p.faults {
		if err := validateFault(f, g); err != nil {
			return nil, err
		}
		sp := span{start: f.Start, end: -1}
		if !f.Permanent() {
			sp.end = f.Start + f.Duration
		}
		switch f.Kind {
		case FaultLink:
			if err := addArc(f.Arc, sp); err != nil {
				return nil, err
			}
		case FaultNode:
			if f.Node < 0 || f.Node >= n {
				return nil, fmt.Errorf("simnet: fault node %d out of range [0,%d)", f.Node, n)
			}
			st.nodeSpans[f.Node] = append(st.nodeSpans[f.Node], sp)
			for k := 0; k < g.OutDegree(f.Node); k++ {
				if err := addArc(Arc{Tail: f.Node, Index: k}, sp); err != nil {
					return nil, err
				}
			}
			for u := 0; u < n; u++ {
				for k, v := range g.Out(u) {
					if v == f.Node && u != f.Node {
						if err := addArc(Arc{Tail: u, Index: k}, sp); err != nil {
							return nil, err
						}
					}
				}
			}
		case FaultLens:
			for _, a := range f.Arcs {
				if err := addArc(a, sp); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("simnet: unknown fault kind %v", f.Kind)
		}
	}
	sort.Ints(st.permStarts)
	return st, nil
}

func (s *refFaultState) Empty() bool {
	return s == nil || (len(s.arcSpans) == 0 && len(s.nodeSpans) == 0)
}

func (s *refFaultState) ArcDownAt(tail, index, cycle int) bool {
	if s == nil || len(s.arcSpans) == 0 {
		return false
	}
	for _, sp := range s.arcSpans[Arc{Tail: tail, Index: index}] {
		if sp.contains(cycle) {
			return true
		}
	}
	return false
}

func (s *refFaultState) NodeDown(node int) bool {
	if s == nil || len(s.nodeSpans) == 0 {
		return false
	}
	for _, sp := range s.nodeSpans[node] {
		if sp.contains(s.cycle) {
			return true
		}
	}
	return false
}

func (s *refFaultState) ArcPermanentlyDown(tail, index int) bool {
	if s == nil || len(s.arcSpans) == 0 {
		return false
	}
	for _, sp := range s.arcSpans[Arc{Tail: tail, Index: index}] {
		if sp.end < 0 && s.cycle >= sp.start {
			return true
		}
	}
	return false
}

func (s *refFaultState) PermanentVersion() int {
	if s == nil {
		return 0
	}
	return sort.SearchInts(s.permStarts, s.cycle+1)
}

// serveChaosPlan draws a plan the way the session service's always-on
// chaos does — link, node and three-arc lens faults at uniform starts
// over the horizon, rate faults per 1000 cycles, lasting 20–219 cycles
// — except that with permanent set, every third fault never heals.
// Tails without out-arcs are redrawn.
func serveChaosPlan(rng *rand.Rand, g *digraph.Digraph, rate float64, horizon int, permanent bool) *FaultPlan {
	plan := NewFaultPlanFor(g)
	tail := func() int {
		for {
			if u := rng.Intn(g.N()); g.OutDegree(u) > 0 {
				return u
			}
		}
	}
	for i := 0; i < max(1, int(rate*float64(horizon)/1000)); i++ {
		start := rng.Intn(horizon)
		duration := 20 + rng.Intn(200)
		if permanent && i%3 == 2 {
			duration = 0
		}
		switch rng.Intn(3) {
		case 0:
			u := tail()
			plan.LinkDown(start, duration, u, rng.Intn(g.OutDegree(u)))
		case 1:
			plan.NodeDown(start, duration, rng.Intn(g.N()))
		case 2:
			group := make([]Arc, 0, 3)
			for j := 0; j < 3; j++ {
				u := tail()
				group = append(group, Arc{Tail: u, Index: rng.Intn(g.OutDegree(u))})
			}
			plan.LensDown(start, duration, rng.Intn(8), group)
		}
	}
	return plan
}

// TestFaultStateMatchesReference: on serve-style chaos plans, transient
// and with permanent faults, over de Bruijn graphs (loops) and random
// multigraphs (parallel arcs, sinks), the flat FaultState answers every
// query like the map-based reference, for every arc and node at every
// cycle in [0, horizon+250). Seed 0 is a plan that downs every node in
// turn, every other one for good, so each node's in-arc expansion
// (loops, parallel arcs) reaches PermanentVersion.
func TestFaultStateMatchesReference(t *testing.T) {
	const horizon = 1024
	graphs := map[string]*digraph.Digraph{
		"B(2,6)": debruijn.DeBruijn(2, 6),
		"B(3,3)": debruijn.DeBruijn(3, 3),
		"random": randomDigraph(rand.New(rand.NewSource(9)), 40, 4),
	}
	for name, g := range graphs {
		for seed := int64(0); seed <= 4; seed++ {
			permanent := seed%2 == 0
			rng := rand.New(rand.NewSource(seed))
			plan := serveChaosPlan(rng, g, 24, horizon, permanent)
			if seed == 0 {
				plan = NewFaultPlanFor(g)
				for u := 0; u < g.N(); u++ {
					plan.NodeDown(3*u, 50*(u%2), u)
				}
			}
			if err := plan.Err(); err != nil {
				t.Fatal(err)
			}
			got, err := plan.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCompile(plan, g)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s seed %d permanent=%v", name, seed, permanent)
			if got.Empty() != want.Empty() {
				t.Fatalf("%s: Empty = %v, reference %v", tag, got.Empty(), want.Empty())
			}
			for cycle := 0; cycle < horizon+250; cycle++ {
				got.Advance(cycle)
				want.cycle = cycle
				if gv, wv := got.PermanentVersion(), want.PermanentVersion(); gv != wv {
					t.Fatalf("%s cycle %d: PermanentVersion = %d, reference %d", tag, cycle, gv, wv)
				}
				for u := 0; u < g.N(); u++ {
					if got.NodeDown(u) != want.NodeDown(u) {
						t.Fatalf("%s cycle %d: NodeDown(%d) = %v, reference %v", tag, cycle, u, got.NodeDown(u), want.NodeDown(u))
					}
					for k := range g.Out(u) {
						if got.ArcDown(u, k) != want.ArcDownAt(u, k, cycle) {
							t.Fatalf("%s cycle %d: ArcDown(%d,%d) = %v, reference %v", tag, cycle, u, k, got.ArcDown(u, k), !got.ArcDown(u, k))
						}
						if got.ArcPermanentlyDown(u, k) != want.ArcPermanentlyDown(u, k) {
							t.Fatalf("%s cycle %d: ArcPermanentlyDown(%d,%d) = %v, reference %v", tag, cycle, u, k, got.ArcPermanentlyDown(u, k), !got.ArcPermanentlyDown(u, k))
						}
					}
				}
			}
			// Out-of-range queries are never down, as map misses were.
			for _, a := range []Arc{{-1, 0}, {g.N(), 0}, {0, -1}, {0, g.OutDegree(0)}} {
				if got.ArcDownAt(a.Tail, a.Index, 100) || got.ArcPermanentlyDown(a.Tail, a.Index) {
					t.Fatalf("%s: out-of-range arc %v reported down", tag, a)
				}
			}
			if got.NodeDown(-1) || got.NodeDown(g.N()) {
				t.Fatalf("%s: out-of-range node reported down", tag)
			}
		}
	}
}
