package simnet

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/digraph"
)

// Table fill and incremental repair of the TableRouter's arc slab.
//
// NewTableRouter and Repair both fill destination columns with one
// level-synchronous, bit-parallel BFS sweep per block of up to 64
// destinations (multi-source BFS in the style of Then et al., VLDB
// 2014): bit j of a node's uint64 masks says whether the block's j-th
// destination has reached it (seen) or reached it at the previous level
// (front). A node u that is new for destination j forwards on an
// out-arc whose head is in front for j.
//
// Which arc, when several qualify, is pinned by the engine goldens: the
// one a per-destination reverse BFS rooted at dst discovers u over.
// That BFS queues a level by the queue position of the parent, then by
// tail id, and discovers u over its first-queued head (the lowest arc
// index among parallel arcs to that head). The sweep reproduces the
// order without a queue: two candidate heads are ordered by walking
// both parent chains up the partly built column until the parents
// coincide; the smaller id at that level was queued first.
//
// Repair is the simnet mirror of debruijn.RepairSlab, operating on arc
// indices instead of hop vertices: the self-healing layer patches its
// epoch slabs through it instead of paying a full NewTableRouter
// rebuild per committed link-state event. The affected-destination test
// is exact: masking a dead arc (u, k) changes the column of destination
// dst only if u was discovered over that very arc, which is precisely
// when the base slab records arc k for (u, dst). Repair sweeps only
// those columns, with the dead arcs masked, and keeps the others
// verbatim, so the patched slab is bit-identical to what NewTableRouter
// would build on the residual digraph.

// Repair returns a TableRouter equal to NewTableRouter on the residual
// digraph of g minus the dead arcs, patching only the destinations
// whose routing tree traverses a dead arc. The receiver must be the
// slab NewTableRouter built for g; it is not modified.
func (r *TableRouter) Repair(g *digraph.Digraph, dead []Arc) (*TableRouter, error) {
	n := g.N()
	if r == nil || r.n != n {
		return nil, fmt.Errorf("simnet: Repair: router built for %d nodes, digraph has %d", routerN(r), n)
	}
	guardIndexInt32(n, "nodes")
	c := newTableCSR(g)
	deadMask := make([]bool, g.M())
	for _, a := range dead {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return nil, fmt.Errorf("simnet: Repair: dead arc (%d#%d) out of range", a.Tail, a.Index)
		}
		deadMask[int(c.fwdBase[a.Tail])+a.Index] = true
	}

	// Patch whichever layout the base router carries: int8 on every
	// graph whose out-degrees fit, the layout the run loop gathers from.
	out := &TableRouter{n: n}
	narrow := r.arcs != nil
	if narrow {
		out.arcs = slices.Clone(r.arcs)
	} else {
		out.wide = slices.Clone(r.wide)
	}

	affected := make([]bool, n)
	count := 0
	for _, a := range dead {
		if g.Out(a.Tail)[a.Index] == a.Tail {
			continue // loops never carry shortest paths
		}
		if narrow {
			count += markAffected(r.arcs[a.Tail*n:(a.Tail+1)*n], int8(a.Index), affected)
		} else {
			count += markAffected(r.wide[a.Tail*n:(a.Tail+1)*n], int32(a.Index), affected)
		}
	}
	if count == 0 {
		return out, nil
	}
	dsts := make([]int32, 0, count)
	for dst, hit := range affected {
		if hit {
			dsts = append(dsts, int32(dst))
		}
	}
	out.fill(c, dsts, deadMask)
	return out, nil
}

// markAffected marks every destination whose routing row forwards over
// dead arc index idx, returning how many were newly marked.
func markAffected[T int8 | int32](row []T, idx T, affected []bool) int {
	count := 0
	for dst, arc := range row {
		if arc == idx && !affected[dst] {
			affected[dst] = true
			count++
		}
	}
	return count
}

// tableCSR is a digraph's adjacency flattened for the table fill: out-arc
// k of u has flat index fwdBase[u]+k and head fwdHead[fwdBase[u]+k], and
// revTail[revBase[v]:revBase[v+1]] lists the tails of the arcs into v.
type tableCSR struct {
	fwdBase, fwdHead []int32
	revBase, revTail []int32
	maxDeg           int
}

func newTableCSR(g *digraph.Digraph) *tableCSR {
	n, m := g.N(), g.M()
	guardIndexInt32(n, "nodes")
	guardIndexInt32(m, "arcs")
	c := &tableCSR{
		fwdBase: make([]int32, n+1),
		fwdHead: make([]int32, 0, m),
		revBase: make([]int32, n+1),
		revTail: make([]int32, m),
	}
	for u := 0; u < n; u++ {
		out := g.Out(u)
		c.maxDeg = max(c.maxDeg, len(out))
		for _, v := range out {
			c.fwdHead = append(c.fwdHead, int32(v))
			c.revBase[v+1]++
		}
		c.fwdBase[u+1] = int32(len(c.fwdHead))
	}
	for v := 0; v < n; v++ {
		c.revBase[v+1] += c.revBase[v]
	}
	slot := slices.Clone(c.revBase[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			c.revTail[slot[v]] = int32(u)
			slot[v]++
		}
	}
	return c
}

// fill writes the slab columns of the distinct destinations dsts over
// the digraph's arcs minus those flagged in dead (by flat index; nil
// masks none).
func (r *TableRouter) fill(c *tableCSR, dsts []int32, dead []bool) {
	if r.arcs != nil {
		fillColumns(r.arcs, r.n, c, dsts, dead)
	} else {
		fillColumns(r.wide, r.n, c, dsts, dead)
	}
}

// fillScratch is the sweep's working storage for n nodes, allocated
// once per fill and reused by every block.
type fillScratch[T int8 | int32] struct {
	blk                []T      // blk[u*64+j]: u's arc toward the block's j-th destination
	seen, front, found []uint64 // found is parallel to the next frontier list
	cur, next, touched []int32
	queued             []bool // u is in touched
}

func fillColumns[T int8 | int32](slab []T, n int, c *tableCSR, dsts []int32, dead []bool) {
	s := &fillScratch[T]{
		blk:     make([]T, n*64),
		seen:    make([]uint64, n),
		front:   make([]uint64, n),
		found:   make([]uint64, n),
		cur:     make([]int32, 0, n),
		next:    make([]int32, 0, n),
		touched: make([]int32, 0, n),
		queued:  make([]bool, n),
	}
	for len(dsts) > 0 {
		block := dsts[:min(len(dsts), 64)]
		dsts = dsts[len(block):]
		fillTable(slab, n, block, c, dead, s)
	}
}

// fillTable writes the slab columns of up to 64 destinations with one
// level-synchronous BFS sweep. Each level touches the tails of the arcs
// into the frontier; a touched node u scans its live out-arcs in index
// order, and each destination whose frontier first reaches u over arc
// k gets k, unless a later arc's head is in the same destination's
// frontier too, which tieBreak settles. The sweep writes into the
// cache-resident s.blk and copies it into the slab row by row at the
// end, -1 for unreached pairs and the diagonal. It runs once per block
// of every build and repair, so it must not allocate: s arrives sized,
// and s.seen, s.front and s.queued are all zero on entry and on return.
//
//lint:hotpath
func fillTable[T int8 | int32](slab []T, n int, dsts []int32, c *tableCSR, dead []bool, s *fillScratch[T]) {
	w := len(dsts)
	full := ^uint64(0) >> (64 - w)
	cur, next, touched := s.cur[:0], s.next[:0], s.touched[:0]
	for j, dst := range dsts {
		s.seen[dst] = 1 << j
		s.front[dst] = 1 << j
		cur = append(cur, dst)
	}
	for len(cur) > 0 {
		touched = touched[:0]
		for _, v := range cur {
			for _, u := range c.revTail[c.revBase[v]:c.revBase[v+1]] {
				if !s.queued[u] && s.seen[u] != full {
					s.queued[u] = true
					touched = append(touched, u)
				}
			}
		}
		next = next[:0]
		for _, u := range touched {
			s.queued[u] = false
			seen := s.seen[u]
			row := s.blk[int(u)*64 : int(u)*64+64]
			lo, hi := c.fwdBase[u], c.fwdBase[u+1]
			var found, tied uint64
			for f := lo; f < hi; f++ {
				if dead != nil && dead[f] {
					continue
				}
				m := s.front[c.fwdHead[f]] &^ seen
				tied |= found & m
				for first := m &^ found; first != 0; first &= first - 1 {
					row[bits.TrailingZeros64(first)] = T(f - lo)
				}
				found |= m
			}
			if found == 0 {
				continue
			}
			for ; tied != 0; tied &= tied - 1 {
				j := bits.TrailingZeros64(tied)
				row[j] = tieBreak(s.blk, j, u, c, dead, s.front)
			}
			s.seen[u] = seen | found
			s.found[len(next)] = found
			next = append(next, u)
		}
		for _, v := range cur {
			s.front[v] = 0
		}
		for i, u := range next {
			s.front[u] = s.found[i]
		}
		cur, next = next, cur
	}
	contiguous := int(dsts[w-1]-dsts[0]) == w-1 // dsts ascend
	for u := 0; u < n; u++ {
		src := s.blk[u*64 : u*64+w]
		for miss := full &^ s.seen[u]; miss != 0; miss &= miss - 1 {
			src[bits.TrailingZeros64(miss)] = -1
		}
		s.seen[u] = 0
		row := slab[u*n : u*n+n]
		if contiguous {
			copy(row[dsts[0]:], src)
			continue
		}
		for j, dst := range dsts {
			row[dst] = src[j]
		}
	}
	for _, dst := range dsts {
		slab[int(dst)*n+int(dst)] = -1
	}
}

// tieBreak returns the arc the reverse BFS rooted at the block's j-th
// destination discovers u over, among u's live out-arcs whose heads
// are in that destination's frontier: the first-queued head, and the
// lowest index among parallel arcs to it.
func tieBreak[T int8 | int32](blk []T, j int, u int32, c *tableCSR, dead []bool, front []uint64) T {
	lo, hi := c.fwdBase[u], c.fwdBase[u+1]
	best, bestHead := int32(-1), int32(-1)
	for f := lo; f < hi; f++ {
		v := c.fwdHead[f]
		if dead != nil && dead[f] || front[v]>>j&1 == 0 {
			continue
		}
		if best < 0 || v != bestHead && queuedBefore(blk, j, v, bestHead, c) {
			best, bestHead = f-lo, v
		}
	}
	return T(best)
}

// queuedBefore reports whether the reverse BFS rooted at the block's
// j-th destination queues a before b: two distinct nodes at the same
// distance (≥ 1) from it whose arcs are written. A level is queued by
// the queue position of the parent (the head of the node's arc), then
// by id.
func queuedBefore[T int8 | int32](blk []T, j int, a, b int32, c *tableCSR) bool {
	for {
		pa := c.fwdHead[c.fwdBase[a]+int32(blk[int(a)*64+j])]
		pb := c.fwdHead[c.fwdBase[b]+int32(blk[int(b)*64+j])]
		if pa == pb {
			return a < b
		}
		a, b = pa, pb
	}
}

func routerN(r *TableRouter) int {
	if r == nil {
		return 0
	}
	return r.n
}
