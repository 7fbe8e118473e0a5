package machine

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Observability. A Recorder attached here flows into every simulator run
// on the machine, and the OTIS layout lets the flat per-arc traversal
// slab be rolled up into per-lens utilization — the metric an optics
// bench actually cares about, since a lens is the shared aperture (and
// shared failure domain) of a whole arc group.

// Observe attaches a metrics recorder to the machine's packet simulator.
// Subsequent Run/Broadcast/RunOpts calls record into it.
// Passing nil detaches.
func (m *Machine) Observe(rec *obs.Recorder) {
	m.net.Observe(rec)
}

// RunOpts executes a workload on the machine's simulator under
// functional options — the machine-level mirror of simnet's unified
// entry point. Workload node ids are physical.
func (m *Machine) RunOpts(w simnet.Workload, opts ...simnet.RunOption) (simnet.RunReport, error) {
	return m.net.RunOpts(w, opts...)
}

// PhysicalArcIndex returns the flat slab index of out-arc k of physical
// node tail — the CSR layout shared by the simulator's queues and the
// recorder's per-arc slabs.
func (m *Machine) PhysicalArcIndex(tail, k int) int {
	return m.net.ArcIndex(tail, k)
}

// LensUtilization rolls the recorder's per-arc traversal counts up into
// per-lens totals using the layout's arc groups. Every hop crosses
// exactly one transmitter-side and one receiver-side lens, so within
// each side the Share values sum to 1 (when any traffic flowed at all).
// The recorder must have been sized by an Observe on this machine (or a
// network of identical arc count) before the runs being rolled up.
func (m *Machine) LensUtilization(rec *obs.Recorder) ([]obs.LensUtilization, error) {
	if rec == nil {
		return nil, fmt.Errorf("machine: LensUtilization needs a recorder")
	}
	trav := rec.ArcTraversals()
	wantArcs := m.Nodes() * m.Degree
	if len(trav) != wantArcs {
		return nil, fmt.Errorf("machine: recorder sized for %d arcs, machine has %d", len(trav), wantArcs)
	}
	var total int64
	for _, t := range trav {
		total += t
	}
	p := m.Layout.P()
	lenses := m.Lenses()
	out := make([]obs.LensUtilization, 0, lenses)
	for lens := 0; lens < lenses; lens++ {
		arcs, err := m.Layout.LensArcs(lens)
		if err != nil {
			return nil, fmt.Errorf("machine: lens %d: %w", lens, err)
		}
		var sum int64
		for _, a := range arcs {
			sum += trav[m.net.ArcIndex(a[0], a[1])]
		}
		u := obs.LensUtilization{Lens: lens, Side: "tx", Arcs: len(arcs), Traversals: sum}
		if lens >= p {
			u.Side = "rx"
		}
		if total > 0 {
			u.Share = float64(sum) / float64(total)
		}
		out = append(out, u)
	}
	return out, nil
}

// LensCongestion rolls the recorder's per-arc peak queue depths up into
// per-lens congestion: for each lens, the deepest any queue in its arc
// group got. Under bounded queues (WithQueueCapacity) no entry exceeds
// the capacity, and a lens pinned at it is the aperture backpressure
// propagates from — the congestion analogue of LensUtilization. The
// recorder must have been sized by an Observe on this machine before
// the runs being rolled up.
func (m *Machine) LensCongestion(rec *obs.Recorder) ([]obs.LensCongestion, error) {
	if rec == nil {
		return nil, fmt.Errorf("machine: LensCongestion needs a recorder")
	}
	peaks := rec.ArcPeakQueue()
	wantArcs := m.Nodes() * m.Degree
	if len(peaks) != wantArcs {
		return nil, fmt.Errorf("machine: recorder sized for %d arcs, machine has %d", len(peaks), wantArcs)
	}
	p := m.Layout.P()
	lenses := m.Lenses()
	out := make([]obs.LensCongestion, 0, lenses)
	for lens := 0; lens < lenses; lens++ {
		arcs, err := m.Layout.LensArcs(lens)
		if err != nil {
			return nil, fmt.Errorf("machine: lens %d: %w", lens, err)
		}
		var peak int64
		for _, a := range arcs {
			if d := peaks[m.net.ArcIndex(a[0], a[1])]; d > peak {
				peak = d
			}
		}
		c := obs.LensCongestion{Lens: lens, Side: "tx", Arcs: len(arcs), PeakQueue: peak}
		if lens >= p {
			c.Side = "rx"
		}
		out = append(out, c)
	}
	return out, nil
}

// RunMetrics snapshots the recorder and attaches the machine's per-lens
// utilization and congestion roll-ups, yielding a complete OBS_run/v1
// document.
func (m *Machine) RunMetrics(rec *obs.Recorder) (obs.RunMetrics, error) {
	lenses, err := m.LensUtilization(rec)
	if err != nil {
		return obs.RunMetrics{}, err
	}
	congestion, err := m.LensCongestion(rec)
	if err != nil {
		return obs.RunMetrics{}, err
	}
	snap := rec.Snapshot()
	snap.Lenses = lenses
	snap.Congestion = congestion
	return snap, nil
}
