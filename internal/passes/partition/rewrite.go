package partition

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// Apply rewrites g, replacing each chosen range with its pipeline:
// Partition ops split the window's external inputs, k micro-instances of
// every window op execute in the stage-interleaved order of Fig. 9, and
// Reconstruct ops restore tensors the rest of the graph consumes
// (Fig. 8b). The rewritten graph's program order is the execution schedule.
// Ranges may come in any order (Tutel's interleave forward and backward
// windows); each pipeline's group ID is its range's index. The rewritten
// graph shares g's tensors and every instruction outside a pipeline
// (DESIGN.md §2): only micro-instances and split/reconstruct ops are new.
// Run and Replay apply the DP's ranges; the Tutel baseline applies
// externally constructed ones, fixing its partition to the a2a+experts
// core instead of searching.
func Apply(g *ir.Graph, ranges []Range) (*ir.Graph, error) {
	byStart := make([]int, len(ranges))
	for i := range byStart {
		byStart[i] = i
	}
	slices.SortStableFunc(byStart, func(a, b int) int { return cmp.Compare(ranges[a].Start, ranges[b].Start) })
	kept, extraInstrs, extraTensors := len(g.Instrs), 0, 0
	prevEnd := -1
	for _, i := range byStart {
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
		prevEnd = r.End
		n := r.End - r.Start + 1
		kept -= n
		// Every split or reconstruct, and every k pieces, belong to a
		// distinct tensor with an axis.
		extraInstrs += r.K*n + len(r.Axes)
		extraTensors += r.K * len(r.Axes)
	}

	rw := getRewriter(g, extraTensors, kept+extraInstrs)
	defer putRewriter(rw)
	ng := rw.ng
	pos := 0
	for _, i := range byStart {
		r := &ranges[i]
		for _, in := range g.Instrs[pos:r.Start] {
			ng.Emit(in)
		}
		if err := rw.emitPipeline(r, i); err != nil {
			return nil, err
		}
		pos = r.End + 1
	}
	for _, in := range g.Instrs[pos:] {
		ng.Emit(in)
	}
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("rewritten graph invalid: %w", err)
	}
	return ng, nil
}

// rewriter is the working set of one Apply call. Produced and
// already-split tensors, and each tensor's pieces, are generation-stamped
// arrays indexed by the input graph's tensor IDs: bumping gen at each
// pipeline invalidates every entry. The arrays are pooled across calls
// like the DP's scratch, and gen only grows, so a stamp left by an earlier
// call never matches.
type rewriter struct {
	g, ng    *ir.Graph
	gen      uint64
	produced []uint64
	seen     []uint64
	partGen  []uint64
	// partBase is the ID of piece 0 of a tensor's split: its k pieces have
	// consecutive IDs.
	partBase []int
}

var rewriterPool = sync.Pool{New: func() any { return new(rewriter) }}

// getRewriter borrows a rewriter whose marks cover g's tensors and starts
// the rewrite of g.
func getRewriter(g *ir.Graph, extraTensors, instrs int) *rewriter {
	rw := rewriterPool.Get().(*rewriter)
	nt := len(g.Tensors)
	if cap(rw.partBase) < nt {
		marks := make([]uint64, 3*nt)
		rw.produced, rw.seen, rw.partGen = marks[:nt], marks[nt:2*nt], marks[2*nt:]
		rw.partBase = make([]int, nt)
	}
	rw.produced, rw.seen, rw.partGen = rw.produced[:nt], rw.seen[:nt], rw.partGen[:nt]
	rw.partBase = rw.partBase[:nt]
	rw.g, rw.ng = g, ir.Derive(g, extraTensors, instrs)
	return rw
}

// putRewriter returns rw to the pool without the graphs it worked on.
func putRewriter(rw *rewriter) {
	rw.g, rw.ng = nil, nil
	rewriterPool.Put(rw)
}

// parts returns the ID of piece 0 of tensor t's k-way split in this
// pipeline, registering the pieces on first use, or false when t has no
// axis.
func (rw *rewriter) parts(r *Range, t int) (int, bool) {
	if rw.partGen[t] == rw.gen {
		return rw.partBase[t], true
	}
	axis, ok := r.Axes[t]
	if !ok {
		return 0, false
	}
	orig := rw.g.Tensor(t)
	base := len(rw.ng.Tensors)
	pieces := make([]ir.Tensor, r.K)
	for p := range pieces {
		pieces[p] = ir.Tensor{
			ID: base + p, Name: orig.Name + ".p" + strconv.Itoa(p),
			Shape: scaledShape(orig.Shape, axis, r.K, p), DType: orig.DType, Kind: orig.Kind,
		}
		rw.ng.Tensors = append(rw.ng.Tensors, &pieces[p])
	}
	rw.partGen[t], rw.partBase[t] = rw.gen, base
	return base, true
}

// pieceIDs lists the k consecutive piece IDs starting at base.
func pieceIDs(base, k int) []int {
	ids := make([]int, k)
	for p := range ids {
		ids[p] = base + p
	}
	return ids
}

func (rw *rewriter) emitPipeline(r *Range, groupID int) error {
	g, ng := rw.g, rw.ng
	window := g.Instrs[r.Start : r.End+1]
	k := r.K
	rw.gen++
	gen := rw.gen
	operands := 0
	for _, in := range window {
		for _, t := range in.Outs {
			rw.produced[t] = gen
		}
		operands += len(in.Ins) + len(in.Outs)
	}

	// Partition ops for external inputs (weights pass through whole).
	for _, in := range window {
		for _, t := range in.Ins {
			if rw.produced[t] == gen || rw.seen[t] == gen {
				continue
			}
			rw.seen[t] = gen
			axis := r.Axes[t]
			if axis == AxisNP {
				continue
			}
			base, _ := rw.parts(r, t) // an axis other than AxisNP is in r.Axes
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			ng.Emit(&ir.Instr{
				Name: g.Tensor(t).Name + ".split", Op: ir.OpPartitionSplit,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: []int{t}, Outs: pieceIDs(base, k), Bytes: bytes,
				Group: groupID, NumParts: k, SrcID: -1, PartAxis: int(axis),
			})
		}
	}

	// Micro-instances in pipeline schedule order: copies whose operands
	// are rewritten to pieces, so each gets fresh operand slices, carved
	// from one array per pipeline.
	plan := schedulePlan(window, k)
	micro := make([]ir.Instr, len(plan))
	ops := make([]int, k*operands)
	for m, ref := range plan {
		in := window[ref.pos]
		c := &micro[m]
		*c = *in
		c.FLOPs /= float64(k)
		c.Bytes /= int64(k)
		c.Group = groupID
		c.PartIdx = ref.part
		c.NumParts = k
		c.SrcID = r.Start + ref.pos
		c.Ins, ops = ops[:len(in.Ins):len(in.Ins)], ops[len(in.Ins):]
		for i, t := range in.Ins {
			c.Ins[i] = t
			if r.Axes[t] == AxisNP {
				continue // weights shared whole
			}
			base, ok := rw.parts(r, t)
			if !ok {
				return fmt.Errorf("no axis for tensor %%%d consumed by %s", t, in.Name)
			}
			c.Ins[i] = base + ref.part
		}
		c.Outs, ops = ops[:len(in.Outs):len(in.Outs)], ops[len(in.Outs):]
		for i, t := range in.Outs {
			base, ok := rw.parts(r, t)
			if !ok {
				return fmt.Errorf("no axis for tensor %%%d produced by %s", t, in.Name)
			}
			c.Outs[i] = base + ref.part
			c.PartAxis = int(r.Axes[t])
		}
		ng.Emit(c)
	}

	// Reconstruct ops for tensors the rest of the graph consumes: the
	// window is a contiguous program range, so those are the tensors last
	// used after its end.
	for _, in := range window {
		for _, t := range in.Outs {
			if g.LastUse(t) <= r.End {
				continue
			}
			axis := r.Axes[t]
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			ng.Emit(&ir.Instr{
				Name: g.Tensor(t).Name + ".reconstruct", Op: ir.OpReconstruct,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: pieceIDs(rw.partBase[t], k), Outs: []int{t}, Bytes: bytes,
				Group: groupID, NumParts: k, SrcID: -1, PartAxis: int(axis),
			})
		}
	}
	return nil
}

// scaledShape is the shape of piece p of a k-way split along axis.
func scaledShape(s ir.Shape, axis Axis, k, p int) ir.Shape {
	out := s.Clone()
	dim, ok := splitDim(s, axis)
	if !ok {
		return out
	}
	base, rem := s[dim]/k, s[dim]%k
	if p < rem {
		out[dim] = base + 1
	} else {
		out[dim] = base
	}
	return out
}

// PipelinePredictUs exposes the pipeline scheduler's P(i,n,k) estimate for
// an externally constructed window, the instructions [start, end] of g
// (inclusive, like a Range), priced under uniform routing.
func PipelinePredictUs(g *ir.Graph, cm *cost.Model, start, end int, asg Assignment, k int) float64 {
	return pipelineCost(g, cm, start, end, asg, k, nil, 1)
}
