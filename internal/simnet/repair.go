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
//
// The sweep's output is kept as a sparse patch (slabPatch): each
// refilled column is compared with the base slab, and only the entries
// that differ are recorded, CSR by row. A self-healing session keeps
// one patch per epoch and reads the shared base slab under it, so an
// epoch costs the size of its diff, not n² bytes; Repair itself is a
// copy of the base with the patch applied.

// Repair returns a TableRouter equal to NewTableRouter on the residual
// digraph of g minus the dead arcs, patching only the destinations
// whose routing tree traverses a dead arc. The receiver must be the
// slab NewTableRouter built for g; it is not modified. The result is
// the receiver's slab with the sparse patch of repairPatch applied.
func (r *TableRouter) Repair(g *digraph.Digraph, dead []Arc) (*TableRouter, error) {
	p, err := r.repairPatch(newTableCSR(g), g, dead)
	if err != nil {
		return nil, err
	}
	out := &TableRouter{n: r.n, arcs: slices.Clone(r.arcs), wide: slices.Clone(r.wide)}
	p.apply(out)
	return out, nil
}

// repairPatch computes what Repair changes: it refills the affected
// destination columns over the digraph minus the dead arcs (c is g's
// newTableCSR) and keeps only the entries that differ from r. A dead
// set that touches no routing tree (empty, or loops only) yields an
// empty patch.
func (r *TableRouter) repairPatch(c *tableCSR, g *digraph.Digraph, dead []Arc) (*slabPatch, error) {
	n := g.N()
	if r == nil || r.n != n {
		return nil, fmt.Errorf("simnet: Repair: router built for %d nodes, digraph has %d", routerN(r), n)
	}
	guardIndexInt32(n, "nodes")
	for _, a := range dead {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return nil, fmt.Errorf("simnet: Repair: dead arc (%d#%d) out of range", a.Tail, a.Index)
		}
	}
	affected := make([]bool, n)
	count := 0
	for _, a := range dead {
		if g.Out(a.Tail)[a.Index] == a.Tail {
			continue // loops never carry shortest paths
		}
		if r.arcs != nil {
			count += markAffected(r.arcs[a.Tail*n:(a.Tail+1)*n], int8(a.Index), affected)
		} else {
			count += markAffected(r.wide[a.Tail*n:(a.Tail+1)*n], int32(a.Index), affected)
		}
	}
	p := &slabPatch{}
	if count == 0 {
		return p, nil
	}
	deadMask := make([]bool, g.M())
	for _, a := range dead {
		deadMask[int(c.fwdBase[a.Tail])+a.Index] = true
	}
	dsts := make([]int32, 0, count)
	for dst, hit := range affected {
		if hit {
			dsts = append(dsts, int32(dst))
		}
	}
	// Patch whichever layout the base router carries: int8 on every
	// graph whose out-degrees fit, the layout the run loop gathers from.
	if r.arcs != nil {
		p.rowOff, p.dst, p.arcs = diffColumns(r.arcs, n, c, dsts, deadMask)
	} else {
		p.rowOff, p.dst, p.wide = diffColumns(r.wide, n, c, dsts, deadMask)
	}
	return p, nil
}

// slabPatch is a repaired slab held as a sparse diff over the pristine
// TableRouter it was repaired from: only the (u, dst) entries whose arc
// differs, CSR by row. Row u's destinations are dst[rowOff[u]:
// rowOff[u+1]], ascending, and their repaired arcs sit at the same
// positions of arcs (the int8 layout) or wide (int32). An empty patch
// holds no storage, not even a row index.
type slabPatch struct {
	rowOff, dst []int32
	arcs        []int8
	wide        []int32
}

// lookup returns the patched arc of (u, dst); ok is false when the
// pair keeps the base slab's arc. It runs on every self-healed
// departure at a nonzero epoch.
//
//lint:hotpath
func (p *slabPatch) lookup(u, dst int) (arc int, ok bool) {
	if p.rowOff == nil {
		return 0, false
	}
	lo, end := int(p.rowOff[u]), int(p.rowOff[u+1])
	for hi := end; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if int(p.dst[mid]) < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || int(p.dst[lo]) != dst {
		return 0, false
	}
	if p.arcs != nil {
		return int(p.arcs[lo]), true
	}
	return int(p.wide[lo]), true
}

// apply writes the patch into r, a copy of the base slab.
func (p *slabPatch) apply(r *TableRouter) {
	if p.rowOff == nil {
		return
	}
	for u := 0; u < r.n; u++ {
		for i := p.rowOff[u]; i < p.rowOff[u+1]; i++ {
			if r.arcs != nil {
				r.arcs[u*r.n+int(p.dst[i])] = p.arcs[i]
			} else {
				r.wide[u*r.n+int(p.dst[i])] = p.wide[i]
			}
		}
	}
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

// sweepColumns runs fillTable over dsts in blocks of up to 64 and hands
// each finished block to emit, which reads row u of the block from
// s.blk[u*64 : u*64+len(block)].
func sweepColumns[T int8 | int32](n int, c *tableCSR, dsts []int32, dead []bool, emit func(block []int32, s *fillScratch[T])) {
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
		fillTable(n, block, c, dead, s)
		emit(block, s)
	}
}

// fillColumns writes the slab columns of dsts.
func fillColumns[T int8 | int32](slab []T, n int, c *tableCSR, dsts []int32, dead []bool) {
	sweepColumns(n, c, dsts, dead, func(block []int32, s *fillScratch[T]) {
		w := len(block)
		contiguous := int(block[w-1]-block[0]) == w-1 // dsts ascend
		for u := 0; u < n; u++ {
			src := s.blk[u*64 : u*64+w]
			row := slab[u*n : u*n+n]
			if contiguous {
				copy(row[block[0]:], src)
				continue
			}
			for j, dst := range block {
				row[dst] = src[j]
			}
		}
	})
}

// diffColumns refills the columns of dsts and returns, CSR by row, the
// entries that differ from base: row u's destinations and arcs are
// dst[rowOff[u]:rowOff[u+1]] and arcs[rowOff[u]:rowOff[u+1]], with
// destinations ascending. rowOff is nil when nothing differs. The
// refilled columns are gathered row-major first, so the comparison
// reads each base row once, in ascending order, instead of once per
// block at scattered positions.
func diffColumns[T int8 | int32](base []T, n int, c *tableCSR, dsts []int32, dead []bool) (rowOff, dst []int32, arcs []T) {
	guardIndexInt32(n, "nodes")
	k := len(dsts)
	cols := make([]T, n*k) // cols[u*k+i]: u's refilled arc toward dsts[i]
	at := 0
	sweepColumns(n, c, dsts, dead, func(block []int32, s *fillScratch[T]) {
		for u := 0; u < n; u++ {
			copy(cols[u*k+at:], s.blk[u*64:u*64+len(block)])
		}
		at += len(block)
	})
	rowOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		row, fresh := base[u*n:u*n+n], cols[u*k:u*k+k]
		fresh = fresh[:len(dsts)] // lets the compiler drop fresh's bounds check
		for i, d := range dsts {
			if fresh[i] != row[d] {
				dst = append(dst, d)
				arcs = append(arcs, fresh[i])
			}
		}
		guardIndexInt32(len(dst), "patch entries")
		rowOff[u+1] = int32(len(dst))
	}
	if len(dst) == 0 {
		return nil, nil, nil
	}
	// Copy out of the append growth so a patch held for the session's
	// lifetime holds only its entries.
	return rowOff, slices.Clone(dst), slices.Clone(arcs)
}

// fillTable writes the slab columns of up to 64 destinations with one
// level-synchronous BFS sweep. Each level touches the tails of the arcs
// into the frontier; a touched node u scans its live out-arcs in index
// order, and each destination whose frontier first reaches u over arc
// k gets k, unless a later arc's head is in the same destination's
// frontier too, which tieBreak settles. The sweep writes into the
// cache-resident s.blk and leaves the block there, -1 for unreached
// pairs and the diagonal, for sweepColumns' caller to copy into a slab
// or diff against one. It runs once per block
// of every build and repair, so it must not allocate: s arrives sized,
// and s.seen, s.front and s.queued are all zero on entry and on return.
//
//lint:hotpath
func fillTable[T int8 | int32](n int, dsts []int32, c *tableCSR, dead []bool, s *fillScratch[T]) {
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
	for j, dst := range dsts {
		s.blk[int(dst)*64+j] = -1
	}
	for u := 0; u < n; u++ {
		src := s.blk[u*64 : u*64+w]
		for miss := full &^ s.seen[u]; miss != 0; miss &= miss - 1 {
			src[bits.TrailingZeros64(miss)] = -1
		}
		s.seen[u] = 0
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
