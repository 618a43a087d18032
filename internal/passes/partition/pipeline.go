package partition

import (
	"lancet/internal/cost"
	"lancet/internal/ir"
)

// predictInstr prices one instruction under the active routing profile:
// all-to-alls under a profiled pricer go to the link-level model's skew
// interpolation table, everything else — and every op under uniform
// routing — keeps the closed-form prediction path.
//
//lancet:hotpath
func predictInstr(cm *cost.Model, in *ir.Instr, pr cost.A2APricer, frac float64) float64 {
	if pr.Profiled() && in.Op == ir.OpAllToAll {
		return a2aProfiledUs(in, 1, pr, frac)
	}
	return cm.PredictInstr(in)
}

// a2aProfiledUs prices one micro all-to-all (1/k of the instruction's
// payload) under the routing profile, mirroring the simulator's replay
// bounds: the link-level price of the actually-routed share of the
// payload, capped at the padded closed form (capacity caps every
// (source, expert) pair, so an irregular exchange can never exceed the
// padded one on any link).
//
//lancet:hotpath
func a2aProfiledUs(in *ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	routed := int64(float64(in.Bytes/int64(k)) * frac)
	t := pr.SkewedUs(routed)
	if padded := pr.PartitionedUs(in.Bytes, in.CommDevices, k); t > padded {
		t = padded
	}
	return t
}

// instanceDur prices one micro-partition of an op. All-to-alls use the
// paper's static-shape approximation (query the profiled table at C/n —
// or, under a routing profile, the skew interpolation table at C/n with
// the same traffic shape); compute ops are re-profiled at 1/k of their
// work, which captures kernel launch overhead and SM under-utilization of
// small kernels. The micro-partition is a stack copy: the cost model
// only reads its scalar fields, and its argument does not escape.
//
//lancet:hotpath
func instanceDur(cm *cost.Model, in *ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	if in.Op == ir.OpAllToAll {
		if pr.Profiled() {
			return a2aProfiledUs(in, k, pr, frac)
		}
		return pr.PartitionedUs(in.Bytes, in.CommDevices, k)
	}
	micro := *in
	micro.FLOPs /= float64(k)
	micro.Bytes /= int64(k)
	micro.NumParts = k
	return cm.PredictInstr(&micro)
}

// boundaryCostUs prices the Partition/Reconstruct plumbing at the pipeline
// edges under the scratch's current axis solution. Batch- and capacity-axis
// splits are views into contiguous buffers (free); irregular splits and
// reconstructions physically regroup tokens and pay memory traffic. The
// cost is k-independent, so Run computes it once per window and adds it to
// every candidate's span; membership tests run on the scratch's
// generation-stamped ID arrays instead of per-call maps, and tensors are
// visited in program order (deterministic, unlike the map iteration it
// replaces). A window is a contiguous program range, so a tensor it
// produces has a consumer outside it exactly when its last use comes
// after the window's last instruction, at position start+len(window)-1.
//
//lancet:hotpath
func boundaryCostUs(g *ir.Graph, cm *cost.Model, start int, window []*ir.Instr, sc *dpScratch) float64 {
	sc.prodT = grow(sc.prodT, len(g.Tensors))
	sc.seenT = grow(sc.seenT, len(g.Tensors))
	sc.markGen++
	gen := sc.markGen
	for _, in := range window {
		for _, t := range in.Outs {
			sc.prodT[t] = gen
		}
	}
	total := 0.0
	copyCost := func(t int) float64 {
		return cm.PredictInstr(&ir.Instr{Op: ir.OpReconstruct, Bytes: 2 * g.Tensor(t).Bytes()})
	}
	for _, in := range window {
		for _, t := range in.Ins {
			if sc.prodT[t] == gen || sc.seenT[t] == gen {
				continue
			}
			sc.seenT[t] = gen
			if sc.axisOf(t) == AxisIrr {
				total += copyCost(t) // irregular boundary split
			}
		}
	}
	last := start + len(window) - 1
	for _, in := range window {
		for _, t := range in.Outs {
			if sc.axisOf(t) == AxisIrr && g.LastUse(t) > last {
				total += copyCost(t) // irregular boundary reconstruct
			}
		}
	}
	return total
}

// windowUs prices one window at partition count k as a new start under
// the scratch's current axis solution, P(i, n, k) of Sec. 5.3: the stage
// pipeline's span plus the boundary plumbing, the price Run's sweep gives
// the same window. Replay and PipelinePredictUs price single windows
// through it.
func (sc *dpScratch) windowUs(g *ir.Graph, cm *cost.Model, start int, window []*ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	boundary := boundaryCostUs(g, cm, start, window, sc)
	sc.prepareWindow(g, start, window)
	return sc.pipelineSpan(cm, window, k, pr, frac) + boundary
}

// PipelinePredictUs exposes the pipeline scheduler's P(i,n,k) estimate for
// an externally constructed window, the instructions [start, end] of g
// (inclusive, like a Range), priced under uniform routing with the axes
// solveAxes infers for it. ok is false when the window is not
// partitionable.
func PipelinePredictUs(g *ir.Graph, cm *cost.Model, start, end, k int, gatePartial bool) (us float64, ok bool) {
	sc := getScratch()
	defer putScratch(sc)
	window := g.Instrs[start : end+1]
	if !sc.solveAxes(g, window, gatePartial) {
		return 0, false
	}
	sc.beginSweep(len(g.Instrs))
	return sc.windowUs(g, cm, start, window, k, cm.NewA2APricer(nil), 1), true
}
