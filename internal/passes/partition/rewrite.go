package partition

import (
	"fmt"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// applyRanges rewrites g, replacing each chosen range with its pipeline:
// Partition ops split the window's external inputs, k micro-instances of
// every window op execute in the stage-interleaved order of Fig. 9, and
// Reconstruct ops restore tensors the rest of the graph consumes
// (Fig. 8b). The rewritten graph's program order is the execution schedule.
func applyRanges(g *ir.Graph, ranges []Range) (*ir.Graph, error) {
	ng := ir.NewGraph()
	ng.Tensors = make([]*ir.Tensor, len(g.Tensors))
	for i, t := range g.Tensors {
		c := *t
		c.Shape = t.Shape.Clone()
		ng.Tensors[i] = &c
	}

	startOf := make(map[int]*Range, len(ranges))
	skip := make(map[int]bool)
	for i := range ranges {
		r := &ranges[i]
		if r.End < r.Start {
			return nil, fmt.Errorf("range %d inverted: [%d,%d]", i, r.Start, r.End)
		}
		startOf[r.Start] = r
		for id := r.Start; id <= r.End; id++ {
			if skip[id] {
				return nil, fmt.Errorf("overlapping partition ranges at @%d", id)
			}
			skip[id] = true
		}
	}

	for id := range g.Instrs {
		if r, ok := startOf[id]; ok {
			if err := emitPipeline(ng, g, r, groupIndex(ranges, r)); err != nil {
				return nil, err
			}
		}
		if skip[id] {
			continue
		}
		ng.Emit(ir.CopyInstr(g.Instr(id)))
	}
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("rewritten graph invalid: %w", err)
	}
	return ng, nil
}

func groupIndex(ranges []Range, r *Range) int {
	for i := range ranges {
		if &ranges[i] == r {
			return i
		}
	}
	return -1
}

func emitPipeline(ng, g *ir.Graph, r *Range, groupID int) error {
	window := g.Instrs[r.Start : r.End+1]
	k := r.K
	inside := make(map[int]bool, len(window))
	produced := make(map[int]bool)
	for _, in := range window {
		inside[in.ID] = true
		for _, t := range in.Outs {
			produced[t] = true
		}
	}

	parts := make(map[int][]int) // original tensor ID -> k piece IDs
	ensureParts := func(t int) []int {
		if ps, ok := parts[t]; ok {
			return ps
		}
		axis, ok := r.Axes[t]
		if !ok {
			return nil
		}
		orig := g.Tensor(t)
		ps := make([]int, k)
		for p := 0; p < k; p++ {
			nt := ng.NewTensor(fmt.Sprintf("%s.p%d", orig.Name, p),
				scaledShape(orig.Shape, axis, k, p), orig.DType, orig.Kind)
			ps[p] = nt.ID
		}
		parts[t] = ps
		return ps
	}

	// Partition ops for external inputs (weights pass through whole).
	seen := make(map[int]bool)
	for _, in := range window {
		for _, t := range in.Ins {
			if produced[t] || seen[t] {
				continue
			}
			seen[t] = true
			axis := r.Axes[t]
			if axis == AxisNP {
				continue
			}
			ps := ensureParts(t)
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			ng.Emit(&ir.Instr{
				Name: g.Tensor(t).Name + ".split", Op: ir.OpPartitionSplit,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: []int{t}, Outs: ps, Bytes: bytes,
				Group: groupID, NumParts: k, SrcID: -1, PartAxis: int(axis),
			})
		}
	}

	// Micro-instances in pipeline schedule order.
	for _, ref := range schedulePlan(window, k) {
		in := window[ref.pos]
		c := ir.CopyInstr(in)
		c.FLOPs /= float64(k)
		c.Bytes /= int64(k)
		c.Group = groupID
		c.PartIdx = ref.part
		c.NumParts = k
		c.SrcID = in.ID
		for i, t := range c.Ins {
			if r.Axes[t] == AxisNP {
				continue // weights shared whole
			}
			ps := ensureParts(t)
			if ps == nil {
				return fmt.Errorf("no axis for tensor %%%d consumed by %s", t, in.Name)
			}
			c.Ins[i] = ps[ref.part]
		}
		for i, t := range c.Outs {
			ps := ensureParts(t)
			if ps == nil {
				return fmt.Errorf("no axis for tensor %%%d produced by %s", t, in.Name)
			}
			c.Outs[i] = ps[ref.part]
			c.PartAxis = int(r.Axes[t])
		}
		ng.Emit(c)
	}

	// Reconstruct ops for tensors the rest of the graph consumes.
	for _, in := range window {
		for _, t := range in.Outs {
			needed := false
			for _, cons := range g.Consumers(t) {
				if !inside[cons] {
					needed = true
					break
				}
			}
			if !needed {
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
				Ins: append([]int(nil), parts[t]...), Outs: []int{t}, Bytes: bytes,
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

// Apply materializes externally constructed ranges (used by the Tutel
// baseline, which fixes its partition to the a2a+experts core instead of
// searching).
func Apply(g *ir.Graph, ranges []Range) (*ir.Graph, error) {
	return applyRanges(g, ranges)
}

// InferAxes exposes partition-axis inference for externally constructed
// windows.
func InferAxes(g *ir.Graph, window []*ir.Instr, gatePartialBatch bool) Assignment {
	return inferAxes(g, window, gatePartialBatch)
}

// PipelinePredictUs exposes the pipeline scheduler's P(i,n,k) estimate for
// an externally constructed window, priced under uniform routing.
func PipelinePredictUs(g *ir.Graph, cm *cost.Model, window []*ir.Instr, asg Assignment, k int) float64 {
	return pipelineCost(g, cm, window, asg, k, nil, 1)
}
