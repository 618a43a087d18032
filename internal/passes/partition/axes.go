// Package partition implements Lancet's operator partition pass (paper
// Sec. 5): dynamic-programming selection of the optimal partition range
// around each all-to-all (Sec. 5.1), partition-axis inference by constraint
// satisfaction including the special irregular axis Airr (Sec. 5.2), the
// stage-based pipeline scheduler that prices a candidate partition
// (Sec. 5.3), and the IR rewrite that materializes the chosen pipelines.
// DESIGN.md §4 places it among the optimization passes.
package partition

import (
	"lancet/internal/ir"
)

// Axis is a tensor partition axis. The numeric batch/capacity axes follow
// the paper's convention (activations are [B,S,H], dispatch buffers are
// [E,C,H]); AxisIrr is the special irregular partition of MoE tensors
// (paper Fig. 5c / Sec. 5.2).
type Axis int

const (
	// AxisNP marks tensors that are not partitioned (weights, and tensors
	// outside any pipeline).
	AxisNP Axis = iota
	// AxisBatch splits activations along the batch dimension (axis 0).
	AxisBatch
	// AxisCap splits dispatch buffers along the capacity dimension
	// (axis 1 of [E,C,H]) — the Tutel-style partition, valid only while
	// the range covers nothing but all-to-alls and experts.
	AxisCap
	// AxisIrr is the irregular partition: tokens grouped by originating
	// micro-batch, with capacity passed between partitions.
	AxisIrr
	// AxisPartial marks partial-sum outputs (expert weight gradients
	// computed per token chunk): every piece has the full shape and the
	// reconstruction accumulates in place (free), which is how chunked
	// GEMMs accumulate with beta=1.
	AxisPartial
)

func (a Axis) String() string {
	switch a {
	case AxisNP:
		return "NP"
	case AxisBatch:
		return "batch"
	case AxisCap:
		return "capacity"
	case AxisIrr:
		return "Airr"
	case AxisPartial:
		return "partial"
	}
	return "axis(?)"
}

// axisSolver holds one window's partition-axis solution and the search
// state that finds it (solveAxes): the axis of each tensor by ID, stamped
// with solveGen; the trail of bound tensor IDs in binding order; and, per
// search depth, the next combination to try and the trail length on
// entry. The DP scratch and the pooled rewriter each embed one, so a
// window's axes are solved where they are read and never copied out. Its
// slices only grow, so a warm solver allocates nothing.
type axisSolver struct {
	axis     []Axis
	axisGen  []uint64
	solveGen uint64
	trail    []int
	comboAt  []int
	trailAt  []int
}

// solveAxes solves the constraint satisfaction problem of Sec. 5.2 for the
// given window of instructions: find a partition axis for every
// non-weight tensor the window touches such that each operator's
// partition constraint F_Z holds and tensors keep a single axis
// throughout. Reports false when the window is not partitionable (e.g. it
// contains a gate that cannot route partial batches); otherwise the
// solution stays readable through axisOf and maxParts until the next
// solve.
//
// The search is a depth-first backtracking over instructions in program
// order, trying each operator's combinations in preference order (see
// opCombo). Axes live in a generation-stamped per-tensor array, so a new
// solve invalidates the previous one in O(1), and every binding is pushed
// on a trail that backtracking pops, so the search allocates nothing once
// the solver is warm.
//
//lancet:hotpath
func (sv *axisSolver) solveAxes(g *ir.Graph, window []*ir.Instr, gatePartial bool) bool {
	sv.resetAxes(g)
	for _, in := range window {
		// An operator with no valid combination fails every branch of the
		// search: reject the window before searching.
		if _, _, ok := opCombo(in, 0, gatePartial); !ok {
			return false
		}
		// Weights are never partitioned; pre-assign them.
		for _, t := range in.Ins {
			if g.Tensor(t).Kind == ir.Weight {
				sv.bind(t, AxisNP)
			}
		}
	}
	n := len(window)
	sv.comboAt = grow(sv.comboAt, n)
	sv.trailAt = grow(sv.trailAt, n)
	if n > 0 {
		sv.comboAt[0], sv.trailAt[0] = 0, len(sv.trail)
	}
	for d := 0; d < n; {
		// Drop the bindings of this depth's previous combination (and any
		// deeper ones) before trying its next combination.
		sv.undo(sv.trailAt[d])
		in := window[d]
		inAx, outAx, ok := opCombo(in, sv.comboAt[d], gatePartial)
		if !ok {
			if d == 0 {
				return false
			}
			d-- // every combination failed here: backtrack
			continue
		}
		sv.comboAt[d]++
		if sv.apply(g, in, inAx, outAx) {
			d++
			if d < n {
				sv.comboAt[d], sv.trailAt[d] = 0, len(sv.trail)
			}
		}
	}
	return true
}

// resetAxes starts an empty solution sized for g's tensors.
//
//lancet:hotpath
func (sv *axisSolver) resetAxes(g *ir.Graph) {
	sv.axis = grow(sv.axis, len(g.Tensors))
	sv.axisGen = grow(sv.axisGen, len(g.Tensors))
	sv.solveGen++
	sv.trail = sv.trail[:0]
}

// apply binds one instruction's combination: every non-weight input to
// inAx, every output to outAx. It reports false at the first tensor
// already bound to another axis; the bindings made so far stay on the
// trail for the caller to undo.
//
//lancet:hotpath
func (sv *axisSolver) apply(g *ir.Graph, in *ir.Instr, inAx, outAx Axis) bool {
	for _, t := range in.Ins {
		if g.Tensor(t).Kind != ir.Weight && !sv.bind(t, inAx) {
			return false
		}
	}
	for _, t := range in.Outs {
		if !sv.bind(t, outAx) {
			return false
		}
	}
	return true
}

// bind assigns axis ax to tensor t and records it on the trail, or — when
// t is already bound in this solve — reports whether the axes agree.
//
//lancet:hotpath
func (sv *axisSolver) bind(t int, ax Axis) bool {
	if sv.axisGen[t] == sv.solveGen {
		return sv.axis[t] == ax
	}
	sv.axis[t] = ax
	sv.axisGen[t] = sv.solveGen
	sv.trail = append(sv.trail, t)
	return true
}

// undo unbinds every tensor recorded on the trail from position mark on.
//
//lancet:hotpath
func (sv *axisSolver) undo(mark int) {
	for _, t := range sv.trail[mark:] {
		sv.axisGen[t] = 0 // generations start at 1: never current
	}
	sv.trail = sv.trail[:mark]
}

// axisOf returns tensor t's axis in the current solution; tensors the
// window does not touch are AxisNP.
//
//lancet:hotpath
func (sv *axisSolver) axisOf(t int) Axis {
	if sv.axisGen[t] == sv.solveGen {
		return sv.axis[t]
	}
	return AxisNP
}

// maxParts returns the largest partition count the current solution
// supports: no tensor can be split into more parts than its partition
// dimension holds.
//
//lancet:hotpath
func (sv *axisSolver) maxParts(g *ir.Graph) int {
	limit := int(^uint(0) >> 1)
	for _, t := range sv.trail {
		shape := g.Tensor(t).Shape
		if dim, ok := splitDim(shape, sv.axis[t]); ok && shape[dim] < limit {
			limit = shape[dim]
		}
	}
	return limit
}

// opCombo returns combination c of the valid axis assignments F_Z for one
// instruction, in preference order: every non-weight input takes inAx and
// every output outAx. ok is false once c runs past the operator's
// combinations — at once for an operator that cannot be partitioned.
//
// The order encodes the paper's preference: capacity-axis partitions are
// tried before Airr, so windows covering only all-to-alls and experts get
// the simple Tutel-style partition, while anything extending past the
// gather (or through the gate) is forced onto Airr by the constraints.
//
//lancet:hotpath
func opCombo(in *ir.Instr, c int, gatePartial bool) (inAx, outAx Axis, ok bool) {
	switch in.Op {
	case ir.OpLayerNorm, ir.OpGeLU, ir.OpAdd, ir.OpSoftmax, ir.OpMatMul,
		ir.OpAttnScores, ir.OpAttnContext, ir.OpEmbedding:
		// Row/batch-parallel operators: all activation inputs and outputs
		// split along the batch dimension; weights stay whole.
		return AxisBatch, AxisBatch, c == 0

	case ir.OpGate:
		// The gate consumes a batch slice and emits an irregularly
		// partitioned dispatch buffer plus routing metadata — but only if
		// the routing decision is computable from partial batches
		// (Sec. 2.3 Challenge 2; Batch Prioritized Routing is not).
		return AxisBatch, AxisIrr, c == 0 && gatePartial

	case ir.OpAllToAll, ir.OpExpertFFN:
		// Capacity-dim partition while the range covers only a2a+experts;
		// irregular otherwise. Both propagate input axis to output —
		// except expert weight gradients, which become partial sums
		// accumulated across chunks.
		if c > 1 {
			return 0, 0, false
		}
		inAx = AxisCap
		if c == 1 {
			inAx = AxisIrr
		}
		outAx = inAx
		if in.Op == ir.OpExpertFFN && in.Grad == ir.GradDW {
			outAx = AxisPartial
		}
		return inAx, outAx, true

	case ir.OpMoEGather:
		// The gather only accepts irregularly partitioned inputs (a
		// capacity split would scatter each partition's tokens across the
		// whole output, Fig. 5a) and restores the batch partition.
		return AxisIrr, AxisBatch, c == 0
	}
	// Any other operator (communication collectives other than a2a, loss,
	// optimizer...) cannot be partitioned.
	return 0, 0, false
}

// splitDim returns the dimension a k-way split along axis divides: batch
// splits axis 0, capacity and irregular splits axis 1 of [E,C,H] buffers
// (axis 0 of rank-1 tensors). ok is false for axes that never split a
// tensor (AxisNP, and AxisPartial, whose pieces keep the full shape).
func splitDim(s ir.Shape, axis Axis) (dim int, ok bool) {
	switch axis {
	case AxisBatch:
		return 0, true
	case AxisCap, AxisIrr:
		if len(s) >= 2 {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
