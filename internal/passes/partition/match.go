package partition

import (
	"math"

	"lancet/internal/ir"
)

// Repeated blocks priced once (DESIGN.md §13). MoE models stack identical
// blocks, so most DP starts grow windows that repeat, instruction for
// instruction, the windows of an earlier start one block back. Before a
// start sweeps its windows, matchStart finds the earlier start whose
// leading groups are an exact translate of its own, and replay pushes that
// start's recorded candidates instead of solving and simulating the
// windows again. Everything here runs once per DP start and, once the
// scratch is warm, allocates nothing.
//
//lancet:hotpath

// candRec is one partitioned candidate of a DP start's sweep: the window
// of d groups from the start, partitioned k ways, priced us. The int32s
// keep a record at 16 bytes; d is bounded by the group count and k by a
// tensor dimension.
type candRec struct {
	d, k int32
	us   float64
}

// startSlot is one entry of the start table: the latest start whose first
// group hashed to key, stamped with the sweep's generation.
type startSlot struct {
	gen, key uint64
	start    int
}

// beginMatch opens an empty start table and record arena for a sweep over
// n groups. The table keeps at most n entries at a load of at most one
// half.
//
//lancet:alloc-ok
func (sc *dpScratch) beginMatch(n int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	sc.slots = grow(sc.slots, size)
	sc.matchGen++
	sc.recOff = grow(sc.recOff, n+1)
	sc.recs = sc.recs[:0]
}

// record appends one candidate to the current start's records.
//
//lancet:alloc-ok
func (sc *dpScratch) record(c candRec) {
	sc.recs = append(sc.recs, c)
}

// matchStart returns the earlier start that start i repeats and the
// number of leading groups, at most limit, in which i is its exact
// translate (0 when there is none), and makes i the latest start of its
// key. Only the latest earlier start whose first group hashes like i's is
// compared.
func (sc *dpScratch) matchStart(g *ir.Graph, i, limit int) (r, m int) {
	key := groupKey(g, sc.bounds[i], sc.bounds[i+1])
	mask := uint64(len(sc.slots) - 1)
	s := key & mask
	for sc.slots[s].gen == sc.matchGen && sc.slots[s].key != key {
		s = (s + 1) & mask
	}
	slot := &sc.slots[s]
	if slot.gen != sc.matchGen {
		*slot = startSlot{gen: sc.matchGen, key: key, start: i}
		return 0, 0
	}
	r, slot.start = slot.start, i
	return r, sc.sharedGroups(g, r, i, limit)
}

// groupKey hashes the translation-invariant content of the instructions
// [a, b): each one's op, FLOPs and bytes and the distance back to each
// operand's producer. Equal keys only nominate a start for sharedGroups,
// which compares everything the window work reads.
func groupKey(g *ir.Graph, a, b int) uint64 {
	h := mix(0, uint64(b-a))
	for pos := a; pos < b; pos++ {
		in := g.Instrs[pos]
		h = mix(h, uint64(in.Op))
		h = mix(h, math.Float64bits(in.FLOPs))
		h = mix(h, uint64(in.Bytes))
		for _, x := range in.Ins {
			dist := -1
			if p := g.Producer(x); p >= 0 {
				dist = pos - p
			}
			h = mix(h, uint64(dist))
		}
	}
	return h
}

// mix folds v into the hash h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// sharedGroups counts the leading groups, at most limit, in which start i
// is an exact translate of the earlier start r: group d of each has the
// same length, and every pair of instructions at the same offset agrees on
// all that the window work reads (sameInstr). A result whose last use
// differs between the two counts only while both uses lie past the longest
// shared window, since boundaryCostUs asks only whether the use falls
// after the window's last instruction; horizon is the nearest such use.
// Every window (i, i+d] with d up to the returned count is then priced
// bit-identically to (r, r+d]: the same float operations in the same order.
func (sc *dpScratch) sharedGroups(g *ir.Graph, r, i, limit int) int {
	bounds := sc.bounds
	horizon := math.MaxInt
	for d := 1; d <= limit; d++ {
		lo, hi := bounds[r+d-1], bounds[r+d]
		if bounds[i+d]-bounds[i+d-1] != hi-lo {
			return d - 1
		}
		for pos := lo; pos < hi; pos++ {
			h, ok := sameInstr(g, bounds[r], bounds[i], pos, horizon)
			if !ok {
				return d - 1
			}
			horizon = h
		}
		if hi-1-bounds[r] >= horizon {
			return d - 1
		}
	}
	return limit
}

// sameInstr reports whether the instruction at position pos, in the block
// starting at br, and its translate in the block starting at bi agree on
// everything the window work reads: extendWindow, pipelineSpan and
// instanceDur, solveAxes and maxParts, boundaryCostUs. Those read the
// fields compared here, the kind, type and shape of every operand and
// result, which operands are the same tensor, which operands the window
// produced, and whether each result is used after the window. So each
// operand's producer must sit at the same offset with the same output
// index; an operand with no producer must be the same tensor, unless it is
// a weight, which the solver pins to AxisNP and which costs no boundary. A
// result's last use must sit at the same offset, or else the nearest of
// the two offsets lowers the returned horizon.
func sameInstr(g *ir.Graph, br, bi, pos, horizon int) (int, bool) {
	a, b := g.Instrs[pos], g.Instrs[pos-br+bi]
	if a.Op != b.Op || a.Grad != b.Grad || math.Float64bits(a.FLOPs) != math.Float64bits(b.FLOPs) ||
		a.Bytes != b.Bytes || a.CommDevices != b.CommDevices || a.Kernels != b.Kernels ||
		a.NumParts != b.NumParts || len(a.Ins) != len(b.Ins) || len(a.Outs) != len(b.Outs) {
		return horizon, false
	}
	for x, ta := range a.Ins {
		tb := b.Ins[x]
		if !sameTensor(g, ta, tb) {
			return horizon, false
		}
		pa, pb := g.Producer(ta), g.Producer(tb)
		switch {
		case pa < 0 && pb < 0:
			if ta != tb && g.Tensor(ta).Kind != ir.Weight {
				return horizon, false
			}
		case pa < 0 || pb < 0 || pa-br != pb-bi || outIndex(g, pa, ta) != outIndex(g, pb, tb):
			return horizon, false
		}
	}
	for x, ta := range a.Outs {
		tb := b.Outs[x]
		if !sameTensor(g, ta, tb) {
			return horizon, false
		}
		la, lb := g.LastUse(ta), g.LastUse(tb)
		switch {
		case la < 0 || lb < 0:
			if la != lb {
				return horizon, false
			}
		case la-br != lb-bi:
			horizon = min(horizon, la-br, lb-bi)
		}
	}
	return horizon, true
}

// sameTensor reports whether tensors a and b agree in kind, element type
// and shape.
func sameTensor(g *ir.Graph, a, b int) bool {
	ta, tb := g.Tensor(a), g.Tensor(b)
	return ta.Kind == tb.Kind && ta.DType == tb.DType && ta.Shape.Equal(tb.Shape)
}

// outIndex returns the index of tensor t among the results of the
// instruction at position p.
func outIndex(g *ir.Graph, p, t int) int {
	for x, o := range g.Instrs[p].Outs {
		if o == t {
			return x
		}
	}
	return -1
}

// replay pushes the candidates of the m leading groups start i shares with
// start r, in the order a fresh sweep would: for each window (i, i+d],
// d ≤ m, its serial candidate, priced from the prefix sums like any other,
// then r's recorded candidates of d groups in r's order. It records them
// as i's own, so i can serve a later start in turn, and returns whether
// the shared groups hold an all-to-all and the number of candidates
// pushed.
func (sc *dpScratch) replay(g *ir.Graph, i, r, m int) (hasA2A bool, evals int) {
	bounds, prefix := sc.bounds, sc.prefix
	q, end := sc.recOff[r], sc.recOff[r+1]
	for d := 1; d <= m; d++ {
		j := i + d
		hasA2A = hasA2A || windowHasA2A(g.Instrs[bounds[j-1]:bounds[j]])
		serial := prefix[bounds[j]] - prefix[bounds[i]]
		sc.offer(j, serial, choice{from: i, k: 1, sUs: serial})
		for ; q < end && int(sc.recs[q].d) == d; q++ {
			c := sc.recs[q]
			sc.offer(j, c.us, choice{from: i, k: int(c.k), pUs: c.us, sUs: serial})
			sc.record(c)
			evals++
		}
	}
	return hasA2A, evals
}

// offer pushes one candidate for T[j]: choice c, costing us after T[c.from].
// Of equal-cost candidates the first offered wins.
func (sc *dpScratch) offer(j int, us float64, c choice) {
	if t := sc.T[c.from] + us; t < sc.T[j] {
		sc.T[j], sc.best[j] = t, c
	}
}
