package simnet

import (
	"fmt"
	"math"

	"repro/internal/digraph"
)

// The reference table fill: frozen copies of the per-destination queue
// BFS that NewTableRouter and TableRouter.Repair ran before the
// bit-parallel sweep replaced them, kept as a differential oracle.
// Every decision — the reverse-CSR order, the queue order, the first
// discovering arc — is the historical one, so
// reflect.DeepEqual(refTableRouter(g), NewTableRouter(g)) proves the
// sweep reproduces the old slab bit for bit, tie-breaks included.

// refTableRouter is the historical NewTableRouter.
func refTableRouter(g *digraph.Digraph) *TableRouter {
	n := g.N()
	guardIndexInt32(n, "nodes")
	guardIndexInt32(g.M(), "arcs")
	base := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			base[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		base[v+1] += base[v]
	}
	revTail := make([]int32, g.M())
	revArc := make([]int32, g.M())
	fill := make([]int32, n)
	for u := 0; u < n; u++ {
		for k, v := range g.Out(u) {
			slot := base[v] + fill[v]
			revTail[slot] = int32(u)
			revArc[slot] = int32(k)
			fill[v]++
		}
	}

	maxDeg := 0
	for u := 0; u < n; u++ {
		if deg := g.OutDegree(u); deg > maxDeg {
			maxDeg = deg
		}
	}
	narrow := maxDeg <= math.MaxInt8
	var arcs []int8
	var wide []int32
	if narrow {
		arcs = make([]int8, n*n)
		for i := range arcs {
			arcs[i] = -1
		}
	} else {
		wide = make([]int32, n*n)
		for i := range wide {
			wide[i] = -1
		}
	}
	seen := make([]int32, n)
	queue := make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		epoch := int32(dst + 1)
		seen[dst] = epoch
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for idx := base[v]; idx < base[v+1]; idx++ {
				u := revTail[idx]
				if seen[u] == epoch {
					continue
				}
				seen[u] = epoch
				if narrow {
					arcs[int(u)*n+dst] = int8(revArc[idx])
				} else {
					wide[int(u)*n+dst] = revArc[idx]
				}
				queue = append(queue, u)
			}
		}
	}
	return &TableRouter{n: n, arcs: arcs, wide: wide}
}

// refRepair is the historical TableRouter.Repair.
func refRepair(r *TableRouter, g *digraph.Digraph, dead []Arc) (*TableRouter, error) {
	n := g.N()
	if r == nil || r.n != n {
		return nil, fmt.Errorf("simnet: Repair: router built for %d nodes, digraph has %d", routerN(r), n)
	}
	guardIndexInt32(n, "nodes")
	guardIndexInt32(g.M(), "arcs")

	fwdBase := make([]int32, n+1)
	for u := 0; u < n; u++ {
		fwdBase[u+1] = fwdBase[u] + int32(g.OutDegree(u))
	}
	deadMask := make([]bool, g.M())
	for _, a := range dead {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return nil, fmt.Errorf("simnet: Repair: dead arc (%d#%d) out of range", a.Tail, a.Index)
		}
		deadMask[fwdBase[a.Tail]+int32(a.Index)] = true
	}

	narrow := r.arcs != nil
	var arcs8 []int8
	var arcs32 []int32
	if narrow {
		arcs8 = make([]int8, len(r.arcs))
		copy(arcs8, r.arcs)
	} else {
		arcs32 = make([]int32, len(r.wide))
		copy(arcs32, r.wide)
	}

	affected := make([]bool, n)
	count := 0
	for _, a := range dead {
		if g.Out(a.Tail)[a.Index] == a.Tail {
			continue
		}
		if narrow {
			count += refMarkAffected(r.arcs[a.Tail*n:(a.Tail+1)*n], int8(a.Index), affected)
		} else {
			count += refMarkAffected(r.wide[a.Tail*n:(a.Tail+1)*n], int32(a.Index), affected)
		}
	}
	if count == 0 {
		return &TableRouter{n: n, arcs: arcs8, wide: arcs32}, nil
	}

	revBase := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			revBase[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		revBase[v+1] += revBase[v]
	}
	revTail := make([]int32, g.M())
	revArc := make([]int32, g.M())
	revFlat := make([]int32, g.M())
	fill := make([]int32, n)
	for u := 0; u < n; u++ {
		for k, v := range g.Out(u) {
			slot := revBase[v] + fill[v]
			revTail[slot] = int32(u)
			revArc[slot] = int32(k)
			revFlat[slot] = fwdBase[u] + int32(k)
			fill[v]++
		}
	}

	seen := make([]int32, n)
	queue := make([]int32, 0, n)
	if narrow {
		refRepatchArcs(arcs8, n, affected, deadMask, revBase, revTail, revArc, revFlat, seen, queue)
	} else {
		refRepatchArcs(arcs32, n, affected, deadMask, revBase, revTail, revArc, revFlat, seen, queue)
	}
	return &TableRouter{n: n, arcs: arcs8, wide: arcs32}, nil
}

func refMarkAffected[T int8 | int32](row []T, idx T, affected []bool) int {
	count := 0
	for dst, arc := range row {
		if arc == idx && !affected[dst] {
			affected[dst] = true
			count++
		}
	}
	return count
}

func refRepatchArcs[T int8 | int32](arcs []T, n int, affected, deadMask []bool, revBase, revTail, revArc, revFlat, seen, queue []int32) {
	guardIndexInt32(n, "nodes")
	for dst := 0; dst < n; dst++ {
		if !affected[dst] {
			continue
		}
		for x := 0; x < n; x++ {
			arcs[x*n+dst] = -1
		}
		epoch := int32(dst + 1)
		seen[dst] = epoch
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for idx := revBase[v]; idx < revBase[v+1]; idx++ {
				if deadMask[revFlat[idx]] {
					continue
				}
				u := revTail[idx]
				if seen[u] == epoch {
					continue
				}
				seen[u] = epoch
				arcs[int(u)*n+dst] = T(revArc[idx])
				queue = append(queue, u)
			}
		}
	}
}
