package simnet

import (
	"fmt"
	"sort"

	"repro/internal/digraph"
	"repro/internal/obs"
)

// Event tracing: an instrumented run that records every packet movement,
// for debugging routing policies and for verifying that the simulator's
// behaviour matches the declared semantics (tests replay traces against
// the digraph and the router).

// EventKind classifies trace events.
type EventKind int

const (
	// EventInject marks a packet entering its source node's queue.
	EventInject EventKind = iota
	// EventDepart marks a packet leaving a node on a link.
	EventDepart
	// EventArrive marks a packet arriving at a node.
	EventArrive
	// EventDeliver marks final delivery.
	EventDeliver
	// EventReroute marks a forward on an arc other than the primary
	// router's choice (fault-aware runs only); the matching EventDepart
	// follows with the same cycle and peer.
	EventReroute
	// EventDrop marks a packet leaving the simulation undelivered (TTL
	// exhausted, retries exhausted, or lost to a node fault).
	EventDrop
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventInject:
		return "inject"
	case EventDepart:
		return "depart"
	case EventArrive:
		return "arrive"
	case EventDeliver:
		return "deliver"
	case EventReroute:
		return "reroute"
	case EventDrop:
		return "drop"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one trace record.
type Event struct {
	Cycle  int
	Kind   EventKind
	Packet int
	Node   int // location (tail for departures)
	Peer   int // head for departures/arrivals; -1 otherwise
}

// String renders "c=12 depart pkt=3 5→11".
func (e Event) String() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("c=%d %s pkt=%d %d→%d", e.Cycle, e.Kind, e.Packet, e.Node, e.Peer)
	}
	return fmt.Sprintf("c=%d %s pkt=%d @%d", e.Cycle, e.Kind, e.Packet, e.Node)
}

// TracedRun wraps Network.Run, replaying each delivered packet's journey
// from the per-packet hop data into a coherent event log. The log is
// reconstructed from a second, instrumented simulation pass that records
// departures; events are ordered by (cycle, kind, packet).
//
// For simplicity and to keep the hot simulation loop allocation-free,
// tracing re-runs the workload with a shadow network whose router
// decisions are recorded.
func (nw *Network) TracedRun(packets []Packet) (Result, []Event) {
	return nw.tracedRun(packets, nw.baseTuning(0), nw.rec)
}

// tracedRun is TracedRun with explicit run tuning and metrics recorder
// for the shadow run (RunOpts threads its per-run overload knobs and
// recorder through here).
func (nw *Network) tracedRun(packets []Packet, tun runTuning, mrec *obs.Recorder) (Result, []Event) {
	rec := &recordingRouter{inner: nw.router}
	shadow := newNetwork(nw.g, rec, nw.cfg)
	res := shadow.run(packets, tun, mrec)

	// Reconstruct per-packet paths by walking the recorded decisions.
	var events []Event
	for _, p := range res.Packets {
		if p.Delivered < 0 {
			continue
		}
		events = append(events, Event{Cycle: p.Release, Kind: EventInject, Packet: p.ID, Node: p.Src, Peer: -1})
		at := p.Src
		for hop := 0; hop < p.Hops; hop++ {
			arc := rec.decision(at, p.Dst)
			next := nw.g.Out(at)[arc]
			events = append(events, Event{Kind: EventDepart, Packet: p.ID, Node: at, Peer: next})
			events = append(events, Event{Kind: EventArrive, Packet: p.ID, Node: next, Peer: at})
			at = next
		}
		events = append(events, Event{Cycle: p.Delivered, Kind: EventDeliver, Packet: p.ID, Node: p.Dst, Peer: -1})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Packet != events[j].Packet {
			return events[i].Packet < events[j].Packet
		}
		return false
	})
	return res, events
}

// recordingRouter memoizes the inner router's decisions (which are
// deterministic per (node, dst) for the routers in this package).
type recordingRouter struct {
	inner     Router
	decisions map[[2]int]int
}

func (r *recordingRouter) NextArc(at, dst int) int {
	arc := r.inner.NextArc(at, dst)
	if r.decisions == nil {
		r.decisions = make(map[[2]int]int)
	}
	r.decisions[[2]int{at, dst}] = arc
	return arc
}

func (r *recordingRouter) decision(at, dst int) int {
	return r.decisions[[2]int{at, dst}]
}

// VerifyTrace checks a trace against the digraph: every depart/arrive
// pair follows an arc, each packet's walk is connected from source to
// destination, reroutes announce a real arc at the packet's position,
// and a dropped packet never moves (or delivers) afterwards. Traces from
// TracedRun and traced fault runs (WithFaults + WithTrace) both satisfy
// it.
func VerifyTrace(g *digraph.Digraph, packets []Packet, events []Event) error {
	byPacket := map[int][]Event{}
	for _, e := range events {
		byPacket[e.Packet] = append(byPacket[e.Packet], e)
	}
	for _, p := range packets {
		evs := byPacket[p.ID]
		if len(evs) == 0 {
			continue // dropped or self-delivered without movement
		}
		at := -1
		dropped := false
		for _, e := range evs {
			if dropped {
				return fmt.Errorf("simnet: packet %d has %v after its drop", p.ID, e.Kind)
			}
			switch e.Kind {
			case EventInject:
				if e.Node != p.Src {
					return fmt.Errorf("simnet: packet %d injected at %d, src %d", p.ID, e.Node, p.Src)
				}
				at = e.Node
			case EventDepart, EventReroute:
				if e.Node != at {
					return fmt.Errorf("simnet: packet %d %vs %d but is at %d", p.ID, e.Kind, e.Node, at)
				}
				if !g.HasArc(e.Node, e.Peer) {
					return fmt.Errorf("simnet: packet %d uses missing arc (%d,%d)", p.ID, e.Node, e.Peer)
				}
			case EventArrive:
				at = e.Node
			case EventDeliver:
				if e.Node != p.Dst || at != p.Dst {
					return fmt.Errorf("simnet: packet %d delivered at %d (at=%d), dst %d", p.ID, e.Node, at, p.Dst)
				}
			case EventDrop:
				// at == -1 with a drop at the source is a source-side
				// loss: a horizon drop (release beyond the cycle
				// budget), an admission shed, or a queue-full drop of a
				// packet that never won injection capacity. All three
				// leave the packet where it would have entered.
				if e.Node != at && !(at == -1 && e.Node == p.Src) {
					return fmt.Errorf("simnet: packet %d dropped at %d but is at %d", p.ID, e.Node, at)
				}
				dropped = true
			}
		}
	}
	return nil
}
