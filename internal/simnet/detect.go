package simnet

import (
	"fmt"
	"sort"

	"repro/internal/digraph"
	"repro/internal/gossip"
	"repro/internal/obs"
)

// Distributed failure knowledge. The fault-aware router of faultroute.go
// is omniscient: it reads the FaultState — the ground truth of the fault
// plan — directly. The self-healing layer removes that oracle. Nodes
// learn of a downed out-arc only by attempting it and timing out
// (detect), tell the rest of the network by flooding a link-state event
// over whatever arcs still work (disseminate), and patch their routing
// slabs incrementally per event (repair). healState is the knowledge
// side of that machinery: who has heard which event, and what routing
// slab a node with a given amount of knowledge uses.
//
// Knowledge is epoch-structured. Committed events are numbered 1, 2, …
// in commit order, and a node's epoch is the longest contiguous prefix
// of events it has heard (a later event heard out of order does not
// advance the epoch, but does feed the believedDown override so the
// node still avoids the arc). Every epoch has one routing slab — the
// pristine slab patched by TableRouter.Repair with the believed-down
// set after that prefix — built lazily and shared by every node at that
// epoch. It is stored as a sparse patch over the pristine slab
// (slabPatch): only the entries the repair changed.
//
// Every lookup the run loop makes per departure is a slice index: arcs
// are addressed by their flat index (Network.arcBase), a node's epoch
// is cached and only ever advances (a flood never un-informs a node and
// events only append), and the events about each arc are chained
// newest first, so beliefs never scan the whole log.

// linkEvent is one committed link-state update: an arc observed down
// (or recovered) by its tail, spreading through the network by flood.
type linkEvent struct {
	arc   Arc
	up    bool
	cycle int // commit cycle (session-absolute)
	// flood tracks which nodes have heard the event; its origin is the
	// observing tail.
	flood *gossip.Flood
	// doneAt is the session cycle the flood completed, -1 while it is
	// still spreading.
	doneAt int
	// prev is the index of the previous event about the same arc, -1
	// for the first.
	prev int
}

// healState holds the distributed knowledge of one self-healing
// session: the committed event log, per-arc suspicion counters, and the
// lazily repaired per-epoch routing patches.
type healState struct {
	g       *digraph.Digraph
	base    *TableRouter // pristine fault-free slab: the epoch-0 routing
	arcBase []int32      // flat index of node u's first out-arc (Network.arcBase)

	events []linkEvent
	// open lists the events whose flood is still spreading, ascending;
	// lastDone is the latest doneAt of the others (0 before any).
	open     []int
	lastDone int
	// nodeEpoch caches each node's epoch; epoch advances it.
	nodeEpoch []int
	// lastEvent is, per flat arc, the index of the latest event about
	// it (-1: none), the head of the arc's chain through linkEvent.prev.
	lastEvent []int
	// suspicion counts the failed attempts on each flat arc since its
	// last success or committed detection.
	suspicion []int

	// patches holds the repaired slab of each epoch as a sparse patch
	// over base (nil: not built yet; index 0 is unused, epoch 0 is
	// base itself). Epochs are prefix-indexed, so a new event never
	// invalidates an older patch.
	patches []*slabPatch
	csr     *tableCSR // g's adjacency for repairs, built on the first
	repairs int
}

func newHealState(g *digraph.Digraph, base *TableRouter, arcBase []int32) *healState {
	m := int(arcBase[g.N()])
	h := &healState{
		g:         g,
		base:      base,
		arcBase:   arcBase,
		nodeEpoch: make([]int, g.N()),
		lastEvent: make([]int, m),
		suspicion: make([]int, m),
		patches:   []*slabPatch{nil},
	}
	for f := range h.lastEvent {
		h.lastEvent[f] = -1
	}
	return h
}

// flat returns the flat index of a, which must be an arc of g.
func (h *healState) flat(a Arc) int { return int(h.arcBase[a.Tail]) + a.Index }

// commit appends a link-state event and starts its flood at the
// observing tail.
func (h *healState) commit(a Arc, up bool, cycle int) error {
	fl, err := gossip.NewFlood(h.g, a.Tail)
	if err != nil {
		return fmt.Errorf("simnet: heal: commit event for arc (%d#%d): %w", a.Tail, a.Index, err)
	}
	i, f := len(h.events), h.flat(a)
	ev := linkEvent{arc: a, up: up, cycle: cycle, flood: fl, doneAt: -1, prev: h.lastEvent[f]}
	if fl.Complete() { // single-node digraph: nothing to spread
		ev.doneAt = cycle
		h.lastDone = max(h.lastDone, cycle)
	} else {
		h.open = append(h.open, i)
	}
	h.events = append(h.events, ev)
	h.patches = append(h.patches, nil)
	h.lastEvent[f] = i
	return nil
}

// stepFloods advances every incomplete flood by one round; live reports
// whether the arc at (tail, index) can carry gossip this cycle.
func (h *healState) stepFloods(cycle int, live func(tail, index int) bool) {
	still := h.open[:0]
	for _, i := range h.open {
		ev := &h.events[i]
		ev.flood.Step(live)
		if !ev.flood.Complete() {
			still = append(still, i)
			continue
		}
		ev.doneAt = cycle
		h.lastDone = max(h.lastDone, cycle)
	}
	h.open = still
}

// epoch returns node u's epoch: the longest contiguous prefix of
// committed events u has heard. The cached value only ever advances, so
// the scan it resumes is amortised O(1).
//
//lint:hotpath
func (h *healState) epoch(u int) int {
	e := h.nodeEpoch[u]
	for e < len(h.events) && h.events[e].flood.Informed(u) {
		e++
	}
	h.nodeEpoch[u] = e
	return e
}

// believedDown reports whether node u currently believes the flat arc
// f is down, judging by the events u has heard (in commit order, the
// last heard event about the arc wins). This is the override that lets
// a node act on knowledge beyond its contiguous epoch — most
// importantly an arc failure it detected itself.
//
//lint:hotpath
func (h *healState) believedDown(u, f int) bool {
	for i := h.lastEvent[f]; i >= 0; i = h.events[i].prev {
		if ev := &h.events[i]; ev.flood.Informed(u) {
			return !ev.up
		}
	}
	return false
}

// activeDown reports whether the committed event log, taken in full,
// leaves the flat arc f down — the view a node at the latest epoch
// holds.
func (h *healState) activeDown(f int) bool {
	i := h.lastEvent[f]
	return i >= 0 && !h.events[i].up
}

// downSet returns the believed-down arcs after the first e events,
// sorted for deterministic repair input: the arcs whose latest event in
// the prefix is a down event, in flat — (tail, index) — order.
func (h *healState) downSet(e int) []Arc {
	dead := []Arc{}
	for f, i := range h.lastEvent {
		for i >= e {
			i = h.events[i].prev
		}
		if i >= 0 && !h.events[i].up {
			dead = append(dead, h.arc(f))
		}
	}
	return dead
}

// arc returns the (tail, index) form of flat arc f.
func (h *healState) arc(f int) Arc {
	tail := sort.Search(h.g.N(), func(u int) bool { return int(h.arcBase[u+1]) > f })
	return Arc{Tail: tail, Index: f - int(h.arcBase[tail])}
}

// slabArc is node u's slab entry for dst at epoch e: the patch of the
// epoch over the shared base slab, repaired on first use.
//
//lint:hotpath
func (h *healState) slabArc(e, u, dst int, rec *obs.Recorder) int {
	if e > 0 {
		p := h.patches[e]
		if p == nil {
			p = h.repair(e, rec)
		}
		if arc, ok := p.lookup(u, dst); ok {
			return arc
		}
	}
	return h.base.NextArc(u, dst)
}

// repair builds the patch of epoch e from the pristine base. Repair
// input arcs come from committed events, which the engine validated on
// commit, so a repair error is an internal invariant violation.
func (h *healState) repair(e int, rec *obs.Recorder) *slabPatch {
	if h.csr == nil {
		h.csr = newTableCSR(h.g)
	}
	p, err := h.base.repairPatch(h.csr, h.g, h.downSet(e))
	if err != nil {
		panic(fmt.Sprintf("simnet: heal: epoch %d slab repair: %v", e, err))
	}
	h.patches[e] = p
	h.repairs++
	rec.RepairSlabBuild()
	return p
}

// converged reports whether every committed event has finished
// flooding: all nodes share the latest epoch.
func (h *healState) converged() bool { return len(h.open) == 0 }

// convergedCycle returns the session cycle at which the last flood
// completed (0 when no event was ever committed, -1 when a flood is
// still spreading).
func (h *healState) convergedCycle() int {
	if len(h.open) > 0 {
		return -1
	}
	return h.lastDone
}

// firstEventCycle returns the commit cycle of the first event, or -1.
func (h *healState) firstEventCycle() int {
	if len(h.events) == 0 {
		return -1
	}
	return h.events[0].cycle
}
