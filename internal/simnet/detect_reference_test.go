package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/debruijn"
)

// The reference knowledge lookups: frozen copies of the scans
// healState answered with before the per-node epoch cache and the
// per-arc event lists replaced them, kept as differential oracles. Each
// one walks the whole committed event log.

// refKnownEpoch is the historical knownEpoch: the longest contiguous
// prefix of committed events u has heard.
func refKnownEpoch(h *healState, u int) int {
	e := 0
	for i := range h.events {
		if !h.events[i].flood.Informed(u) {
			break
		}
		e++
	}
	return e
}

// refBelievedDown is the historical believedDown: the last event about
// the arc that u has heard wins.
func refBelievedDown(h *healState, u int, a Arc) bool {
	down := false
	for i := range h.events {
		ev := &h.events[i]
		if ev.arc == a && ev.flood.Informed(u) {
			down = !ev.up
		}
	}
	return down
}

// refActiveDown is the historical activeDown: the full log's view.
func refActiveDown(h *healState, a Arc) bool {
	down := false
	for i := range h.events {
		if h.events[i].arc == a {
			down = !h.events[i].up
		}
	}
	return down
}

// refDownSet is the historical downSet: the believed-down arcs after
// the first e events, sorted.
func refDownSet(h *healState, e int) []Arc {
	down := map[Arc]bool{}
	for i := range h.events[:e] {
		if h.events[i].up {
			delete(down, h.events[i].arc)
		} else {
			down[h.events[i].arc] = true
		}
	}
	dead := make([]Arc, 0, len(down))
	for a := range down {
		dead = append(dead, a)
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].Tail != dead[j].Tail {
			return dead[i].Tail < dead[j].Tail
		}
		return dead[i].Index < dead[j].Index
	})
	return dead
}

// refConvergedCycle is the historical convergedCycle.
func refConvergedCycle(h *healState) int {
	at := 0
	for i := range h.events {
		if h.events[i].doneAt < 0 {
			return -1
		}
		if h.events[i].doneAt > at {
			at = h.events[i].doneAt
		}
	}
	return at
}

// checkKnowledge asserts that every cached lookup of h equals its
// reference scan, for every node and arc. Event prefixes never change,
// so the down set of an earlier epoch, and its patch once built, are
// checked once: downs and patches record the epochs done. A built patch
// must read, over the base, like the reference repair of its down set.
func checkKnowledge(t *testing.T, tag string, h *healState, downs, patches map[int]bool) {
	t.Helper()
	g := h.g
	for u := 0; u < g.N(); u++ {
		want := refKnownEpoch(h, u)
		if h.nodeEpoch[u] > want {
			t.Fatalf("%s: node %d cached epoch %d ahead of its knowledge %d", tag, u, h.nodeEpoch[u], want)
		}
		if got := h.epoch(u); got != want || h.nodeEpoch[u] != want {
			t.Fatalf("%s: epoch(%d) = %d (cached %d), reference %d", tag, u, got, h.nodeEpoch[u], want)
		}
		for k := range g.Out(u) {
			a := Arc{Tail: u, Index: k}
			f := h.flat(a)
			if h.arc(f) != a {
				t.Fatalf("%s: arc(flat(%v)) = %v", tag, a, h.arc(f))
			}
			if h.activeDown(f) != refActiveDown(h, a) {
				t.Fatalf("%s: activeDown(%v) = %v, reference %v", tag, a, h.activeDown(f), !h.activeDown(f))
			}
			for v := 0; v < g.N(); v++ {
				if got, want := h.believedDown(v, f), refBelievedDown(h, v, a); got != want {
					t.Fatalf("%s: believedDown(%d, %v) = %v, reference %v", tag, v, a, got, want)
				}
			}
		}
	}
	for e := 0; e <= len(h.events); e++ {
		if !downs[e] {
			if got, want := h.downSet(e), refDownSet(h, e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: downSet(%d) = %v, reference %v", tag, e, got, want)
			}
			downs[e] = true
		}
		if e == 0 || h.patches[e] == nil || patches[e] {
			continue
		}
		patches[e] = true
		want, err := refRepair(h.base, g, refDownSet(h, e))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for dst := 0; dst < g.N(); dst++ {
				if got := h.slabArc(e, u, dst, nil); got != want.NextArc(u, dst) {
					t.Fatalf("%s: epoch %d slab (%d,%d) = %d, reference repair %d", tag, e, u, dst, got, want.NextArc(u, dst))
				}
			}
		}
	}
	wantOpen := refConvergedCycle(h) < 0
	if h.converged() == wantOpen || h.convergedCycle() != refConvergedCycle(h) {
		t.Fatalf("%s: converged %v@%d, reference %v@%d", tag, h.converged(), h.convergedCycle(), !wantOpen, refConvergedCycle(h))
	}
}

// TestHealKnowledgeMatchesReference runs one long SelfHealing session
// under serve-style chaos (transient link, node and lens faults) and,
// after every one of its 300 Runs, checks the cached node epochs,
// per-arc beliefs, down sets, convergence and built epoch slabs
// against the reference scans.
func TestHealKnowledgeMatchesReference(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	rng := rand.New(rand.NewSource(3))
	plan := serveChaosPlan(rng, g, 12, 8192, false)
	nw := tableNet(t, g)
	session, err := nw.SelfHeal(plan, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	downs, patches := map[int]bool{}, map[int]bool{}
	for run := 0; run < 300; run++ {
		pkts := UniformRandom(g.N(), 64, int64(run))
		res, err := session.Run(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered+res.Dropped+res.Shed != len(pkts) {
			t.Fatalf("run %d: delivered %d + dropped %d + shed %d != offered %d", run, res.Delivered, res.Dropped, res.Shed, len(pkts))
		}
		checkKnowledge(t, fmt.Sprintf("run %d", run), session.heal, downs, patches)
	}
	h := session.heal
	ups := 0
	for i := range h.events {
		if h.events[i].up {
			ups++
		}
	}
	t.Logf("%d events (%d up), %d epoch slabs built", len(h.events), ups, h.repairs)
	if ups == 0 || len(h.events)-ups < 2 || h.repairs < 2 {
		t.Fatalf("session committed %d events (%d up) and built %d epoch slabs; the check needs several of each", len(h.events), ups, h.repairs)
	}
}
