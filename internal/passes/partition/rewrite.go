package partition

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"lancet/internal/ir"
)

// Apply rewrites g, replacing each chosen range with its pipeline:
// Partition ops split the window's external inputs, k micro-instances of
// every window op execute in the stage-interleaved order of Fig. 9, and
// Reconstruct ops restore tensors the rest of the graph consumes
// (Fig. 8b). The rewritten graph's program order is the execution schedule.
// Ranges may come in any order (Tutel's interleave forward and backward
// windows). The rewritten graph shares g's tensors and every instruction
// outside a pipeline (DESIGN.md §2): only micro-instances and
// split/reconstruct ops are new.
// The validation pass sizes the rewrite exactly, so everything new is
// carved from one slab per kind the rewritten graph owns: piece tensors,
// their shapes, instructions, operand lists, and one string every new
// name slices.
// Apply solves each range's partition axes itself (solveAxes, with gates
// routing partial batches when gatePartial), once when the validation
// pass sizes the range and once when its pipeline is emitted; a range
// with no solution is an error.
// Run and Replay apply the DP's ranges; the Tutel baseline applies
// externally constructed ones, fixing its partition to the a2a+experts
// core instead of searching.
func Apply(g *ir.Graph, ranges []Range, gatePartial bool) (*ir.Graph, error) {
	rw := getRewriter(g)
	defer putRewriter(rw)
	return rw.apply(ranges, gatePartial)
}

// apply is Apply on a borrowed rewriter: the validation pass checks,
// solves and sizes every range, carve allocates the slabs, and the
// emission pass fills them.
func (rw *rewriter) apply(ranges []Range, gatePartial bool) (*ir.Graph, error) {
	g := rw.g
	rw.byStart = rw.byStart[:0]
	for i := range ranges {
		rw.byStart = append(rw.byStart, i)
	}
	slices.SortStableFunc(rw.byStart, func(a, b int) int { return cmp.Compare(ranges[a].Start, ranges[b].Start) })
	kept := len(g.Instrs)
	prevEnd := -1
	for _, i := range rw.byStart {
		r := &ranges[i]
		if r.End < r.Start {
			return nil, fmt.Errorf("range %d inverted: [%d,%d]", i, r.Start, r.End)
		}
		if r.Start < 0 || r.End >= len(g.Instrs) {
			return nil, fmt.Errorf("range %d [%d,%d] outside the graph's %d instructions", i, r.Start, r.End, len(g.Instrs))
		}
		if r.Start <= prevEnd {
			return nil, fmt.Errorf("overlapping partition ranges at @%d", r.Start)
		}
		if !rw.solveAxes(g, g.Instrs[r.Start:r.End+1], gatePartial) {
			return nil, fmt.Errorf("range %d [%d,%d] has no partition axes", i, r.Start, r.End)
		}
		prevEnd = r.End
		kept -= r.End - r.Start + 1
		rw.count(r)
	}

	rw.carve(kept)
	ng := rw.ng
	pos := 0
	for _, i := range rw.byStart {
		r := &ranges[i]
		for _, in := range g.Instrs[pos:r.Start] {
			ng.Emit(in)
		}
		rw.emitPipeline(r, gatePartial)
		pos = r.End + 1
	}
	for _, in := range g.Instrs[pos:] {
		ng.Emit(in)
	}
	rw.nameAll()
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("rewritten graph invalid: %w", err)
	}
	return ng, nil
}

// rewriter is the working set of one Apply call. Produced and
// already-split tensors and each tensor's pieces are generation-stamped
// arrays indexed by the input graph's tensor IDs: bumping gen at each
// pipeline invalidates every entry. The current range's axes are its
// solver's solution. The marks, buffers and solver are pooled across
// calls like the DP's scratch, and gen only grows, so a stamp left by an
// earlier call never matches. The slabs are the rewritten graph's own:
// putRewriter drops them, with every other pointer into a graph.
type rewriter struct {
	g, ng    *ir.Graph
	gen      uint64
	produced []uint64
	seen     []uint64
	partGen  []uint64
	// partBase is the ID of piece 0 of a tensor's split: its k pieces have
	// consecutive IDs.
	partBase []int
	axisSolver

	byStart []int // range indices in program order
	// stOff holds the current pipeline's stage offsets: stage s covers the
	// window positions [stOff[s], stOff[s+1]), a maximal run of
	// instructions on one stream (Sec. 5.3).
	stOff []int

	// n totals the new objects of every range, counted by the validation
	// pass; carve allocates the slabs to exactly that size.
	n rewriteSize

	// The slabs and the next free entry of each.
	tensors        []ir.Tensor
	shapes, ops    []int
	instrs         []ir.Instr
	nt, ns, no, ni int

	// names holds every new name, in the order they are built; pieceNames
	// and opNames record where each piece's and each split or reconstruct
	// op's name lies in it, until nameAll sets them.
	names      []byte
	pieceNames []nameSpan
	opNames    []nameSpan
}

// rewriteSize counts what one rewrite adds: piece tensors, their shape
// ints, instructions (split and reconstruct ops among them), operand ints
// and name bytes.
type rewriteSize struct {
	tensors, shapeInts, instrs, plumbing, operands, nameBytes int
}

// nameSpan locates the name of slab entry at: names[from:to].
type nameSpan struct {
	at, from, to int
}

const (
	splitSuffix       = ".split"
	reconstructSuffix = ".reconstruct"
)

var rewriterPool = sync.Pool{New: func() any { return new(rewriter) }}

// getRewriter borrows a rewriter whose marks cover g's tensors and starts
// the rewrite of g.
func getRewriter(g *ir.Graph) *rewriter {
	rw := rewriterPool.Get().(*rewriter)
	nt := len(g.Tensors)
	if cap(rw.partBase) < nt {
		marks := make([]uint64, 3*nt)
		rw.produced, rw.seen, rw.partGen = marks[:nt], marks[nt:2*nt], marks[2*nt:]
		rw.partBase = make([]int, nt)
	}
	rw.produced, rw.seen, rw.partGen = rw.produced[:nt], rw.seen[:nt], rw.partGen[:nt]
	rw.partBase = rw.partBase[:nt]
	rw.g, rw.n = g, rewriteSize{}
	return rw
}

// putRewriter returns rw to the pool without the graphs it worked on or
// the slabs it carved for the rewritten one.
func putRewriter(rw *rewriter) {
	rw.g, rw.ng = nil, nil
	rw.tensors, rw.shapes, rw.ops, rw.instrs = nil, nil, nil, nil
	rewriterPool.Put(rw)
}

// count adds r's pipeline to the rewrite's size under the solver's
// current solution, by the rules emitPipeline builds it with: K
// micro-instances per window op, and K pieces per window output and per
// external input whose axis is not NP.
// Each such input gets a split op and each output the rest of the graph
// consumes a reconstruct op.
func (rw *rewriter) count(r *Range) {
	g, n, k := rw.g, &rw.n, r.K
	window := g.Instrs[r.Start : r.End+1]
	rw.gen++
	gen := rw.gen
	for _, in := range window {
		for _, t := range in.Outs {
			rw.produced[t] = gen
		}
	}
	pieces := func(t int) {
		n.tensors += k
		n.shapeInts += k * len(g.Tensor(t).Shape)
		n.nameBytes += k*(len(g.Tensor(t).Name)+len(".p")) + indexDigits(k)
	}
	for _, in := range window {
		n.instrs += k
		n.operands += k * (len(in.Ins) + len(in.Outs))
		for _, t := range in.Ins {
			if rw.produced[t] == gen || rw.seen[t] == gen {
				continue
			}
			rw.seen[t] = gen
			if rw.axisOf(t) == AxisNP {
				continue
			}
			pieces(t)
			n.instrs++
			n.plumbing++
			n.operands += 1 + k
			n.nameBytes += len(g.Tensor(t).Name) + len(splitSuffix)
		}
	}
	for _, in := range window {
		for _, t := range in.Outs {
			pieces(t)
			if g.LastUse(t) > r.End {
				n.instrs++
				n.plumbing++
				n.operands += k + 1
				n.nameBytes += len(g.Tensor(t).Name) + len(reconstructSuffix)
			}
		}
	}
}

// indexDigits is the number of decimal digits in 0, 1, ..., k-1
// together: the piece-index suffixes of a k-way split's names.
func indexDigits(k int) int {
	n, width, lo := 0, 1, 0
	for hi := 10; lo < k; hi, width = hi*10, width+1 {
		n += (min(hi, k) - lo) * width
		lo = hi
	}
	return n
}

// carve starts the rewritten graph with room for the kept instructions
// and everything count added, and allocates the slabs it is carved from.
func (rw *rewriter) carve(kept int) {
	n := rw.n
	rw.ng = ir.Derive(rw.g, n.tensors, kept+n.instrs)
	rw.tensors = make([]ir.Tensor, n.tensors)
	rw.shapes = make([]int, n.shapeInts)
	rw.instrs = make([]ir.Instr, n.instrs)
	rw.ops = make([]int, n.operands)
	rw.nt, rw.ns, rw.ni, rw.no = 0, 0, 0, 0
	rw.names = slices.Grow(rw.names[:0], n.nameBytes)
	rw.pieceNames = slices.Grow(rw.pieceNames[:0], n.tensors)
	rw.opNames = slices.Grow(rw.opNames[:0], n.plumbing)
}

// operands carves an operand list of length n.
func (rw *rewriter) operands(n int) []int {
	s := rw.ops[rw.no : rw.no+n : rw.no+n]
	rw.no += n
	return s
}

// instr carves a new instruction.
func (rw *rewriter) instr() *ir.Instr {
	c := &rw.instrs[rw.ni]
	rw.ni++
	return c
}

// plumbing carves a split or reconstruct op and builds its name: tensor
// t's name with the suffix.
func (rw *rewriter) plumbing(t int, suffix string) *ir.Instr {
	from := len(rw.names)
	rw.names = append(append(rw.names, rw.g.Tensor(t).Name...), suffix...)
	rw.opNames = append(rw.opNames, nameSpan{rw.ni, from, len(rw.names)})
	return rw.instr()
}

// parts returns the ID of piece 0 of tensor t's k-way split along axis in
// this pipeline, registering the pieces on first use.
func (rw *rewriter) parts(t int, axis Axis, k int) int {
	if rw.partGen[t] == rw.gen {
		return rw.partBase[t]
	}
	orig := rw.g.Tensor(t)
	base := len(rw.ng.Tensors)
	for p := range k {
		shape := rw.shapes[rw.ns : rw.ns+len(orig.Shape) : rw.ns+len(orig.Shape)]
		rw.ns += len(orig.Shape)
		copy(shape, orig.Shape)
		if dim, n, ok := splitLen(orig.Shape, axis, k, p); ok {
			shape[dim] = n
		}
		from := len(rw.names)
		rw.names = strconv.AppendInt(append(append(rw.names, orig.Name...), ".p"...), int64(p), 10)
		rw.pieceNames = append(rw.pieceNames, nameSpan{rw.nt, from, len(rw.names)})
		piece := &rw.tensors[rw.nt]
		rw.nt++
		*piece = ir.Tensor{ID: base + p, Shape: shape, DType: orig.DType, Kind: orig.Kind}
		rw.ng.Tensors = append(rw.ng.Tensors, piece)
	}
	rw.partGen[t], rw.partBase[t] = rw.gen, base
	return base
}

// emitPipeline emits r's pipeline under the axes it solves for r's
// window: a split op per external input with an axis, the
// micro-instances in Fig. 9's issue order (stages in order; within a
// stage, partitions; within both, program order — the order the DP
// simulates), and a reconstruct op per output consumed after the window.
// The validation pass solved the same window, so the solve succeeds.
func (rw *rewriter) emitPipeline(r *Range, gatePartial bool) {
	g, ng := rw.g, rw.ng
	window := g.Instrs[r.Start : r.End+1]
	k := r.K
	rw.solveAxes(g, window, gatePartial)
	rw.gen++
	gen := rw.gen
	rw.stOff = rw.stOff[:0]
	for pos, in := range window {
		for _, t := range in.Outs {
			rw.produced[t] = gen
		}
		if pos == 0 || in.IsComm() != window[pos-1].IsComm() {
			rw.stOff = append(rw.stOff, pos)
		}
	}
	rw.stOff = append(rw.stOff, len(window))

	// Partition ops for external inputs (weights pass through whole).
	for _, in := range window {
		for _, t := range in.Ins {
			if rw.produced[t] == gen || rw.seen[t] == gen {
				continue
			}
			rw.seen[t] = gen
			axis := rw.axisOf(t)
			if axis == AxisNP {
				continue
			}
			base := rw.parts(t, axis, k)
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			c := rw.plumbing(t, splitSuffix)
			ins, outs := rw.operands(1), rw.operands(k)
			ins[0] = t
			for p := range outs {
				outs[p] = base + p
			}
			*c = ir.Instr{
				Op: ir.OpPartitionSplit, Phase: ir.Forward, Layer: in.Layer,
				Ins: ins, Outs: outs, Bytes: bytes,
				NumParts: k,
			}
			ng.Emit(c)
		}
	}

	// Micro-instances: copies whose operands are rewritten to pieces.
	for s := 0; s+1 < len(rw.stOff); s++ {
		lo, hi := rw.stOff[s], rw.stOff[s+1]
		for p := range k {
			for pos := lo; pos < hi; pos++ {
				in := window[pos]
				c := rw.instr()
				*c = *in
				c.FLOPs /= float64(k)
				c.Bytes /= int64(k)
				c.PartIdx = p
				c.NumParts = k
				c.Ins = rw.operands(len(in.Ins))
				for i, t := range in.Ins {
					c.Ins[i] = t
					if axis := rw.axisOf(t); axis != AxisNP {
						c.Ins[i] = rw.parts(t, axis, k) + p
					}
				}
				c.Outs = rw.operands(len(in.Outs))
				for i, t := range in.Outs {
					c.Outs[i] = rw.parts(t, rw.axisOf(t), k) + p
				}
				ng.Emit(c)
			}
		}
	}

	// Reconstruct ops for tensors the rest of the graph consumes: the
	// window is a contiguous program range, so those are the tensors last
	// used after its end.
	for _, in := range window {
		for _, t := range in.Outs {
			if g.LastUse(t) <= r.End {
				continue
			}
			var bytes int64
			if rw.axisOf(t) == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			c := rw.plumbing(t, reconstructSuffix)
			ins, outs := rw.operands(k), rw.operands(1)
			for p := range ins {
				ins[p] = rw.partBase[t] + p
			}
			outs[0] = t
			*c = ir.Instr{
				Op: ir.OpReconstruct, Phase: ir.Forward, Layer: in.Layer,
				Ins: ins, Outs: outs, Bytes: bytes,
				NumParts: k,
			}
			ng.Emit(c)
		}
	}
}

// nameAll converts the names built during the rewrite into one string
// and gives every new piece and plumbing op its slice of it.
func (rw *rewriter) nameAll() {
	names := string(rw.names)
	for _, n := range rw.pieceNames {
		rw.tensors[n.at].Name = names[n.from:n.to]
	}
	for _, n := range rw.opNames {
		rw.instrs[n.at].Name = names[n.from:n.to]
	}
}

// splitLen returns the length of piece p's split dimension in a k-way
// split of shape s along axis, and which dimension that is: the first
// s[dim]%k pieces take one extra. ok is false for axes whose pieces keep
// the full shape.
func splitLen(s ir.Shape, axis Axis, k, p int) (dim, n int, ok bool) {
	dim, ok = splitDim(s, axis)
	if !ok {
		return 0, 0, false
	}
	n = s[dim] / k
	if p < s[dim]%k {
		n++
	}
	return dim, n, true
}
