package partition

import (
	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/netsim"
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

// stageOf assigns each window position to a pipeline stage: a stage is a
// maximal run of instructions that execute consecutively on the same stream
// (all computation or all communication), per Sec. 5.3.
func stageOf(window []*ir.Instr) []int {
	st := make([]int, len(window))
	cur := 0
	for i, in := range window {
		if i > 0 && in.IsComm() != window[i-1].IsComm() {
			cur++
		}
		st[i] = cur
	}
	return st
}

// instanceRef identifies one micro-partition instance of a window op.
type instanceRef struct {
	pos  int // index into the window
	part int
}

// schedulePlan returns the pipeline issue order of Fig. 9: stages in order;
// within a stage, partitions in index order; within a stage-partition pair,
// original program order. The DP hot path walks the same order over the
// scratch arenas, resuming across window extensions
// (dpScratch.pipelineSpan); this materialized form remains for the
// rewrite, which needs the plan as a value.
func schedulePlan(window []*ir.Instr, k int) []instanceRef {
	st := stageOf(window)
	nStages := 0
	if len(window) > 0 {
		nStages = st[len(window)-1] + 1
	}
	plan := make([]instanceRef, 0, len(window)*k)
	for s := 0; s < nStages; s++ {
		for p := 0; p < k; p++ {
			for pos, stage := range st {
				if stage == s {
					plan = append(plan, instanceRef{pos, p})
				}
			}
		}
	}
	return plan
}

// instanceDur prices one micro-partition of an op. All-to-alls use the
// paper's static-shape approximation (query the profiled table at C/n —
// or, under a routing profile, the skew interpolation table at C/n with
// the same traffic shape); compute ops are re-profiled at 1/k of their
// work, which captures kernel launch overhead and SM under-utilization of
// small kernels. tmp is caller-owned scratch for the micro-partition
// instruction, so the hot loop allocates no copies; the cost model only
// reads its scalar fields.
//
//lancet:hotpath
func instanceDur(cm *cost.Model, in *ir.Instr, k int, pr cost.A2APricer, frac float64, tmp *ir.Instr) float64 {
	if in.Op == ir.OpAllToAll {
		if pr.Profiled() {
			return a2aProfiledUs(in, k, pr, frac)
		}
		return pr.PartitionedUs(in.Bytes, in.CommDevices, k)
	}
	*tmp = *in
	tmp.FLOPs /= float64(k)
	tmp.Bytes /= int64(k)
	tmp.NumParts = k
	return cm.PredictInstr(tmp)
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
		sc.tmp = ir.Instr{Op: ir.OpReconstruct, Bytes: 2 * g.Tensor(t).Bytes()}
		return cm.PredictInstr(&sc.tmp)
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

// pipelineCost simulates the stage pipeline and returns P(i, n, k): the
// end-to-end time of the partitioned window (Sec. 5.3). Each instance's
// start time is the maximum of (i) the end of the instances it depends on
// and (ii) the end of the previous instance on its stream. This is the
// standalone form for external callers and tests: it indexes the window
// g.Instrs[start:end+1] as a new start and simulates it from scratch. Run
// drives the decomposed pieces (extendWindow / pipelineSpan resumed across
// extensions / hoisted boundary cost) directly on its own scratch.
func pipelineCost(g *ir.Graph, cm *cost.Model, start, end int, asg Assignment, k int, prof *netsim.RoutingProfile, frac float64) float64 {
	pr := cm.NewA2APricer(prof)
	sc := getScratch()
	defer putScratch(sc)
	window := g.Instrs[start : end+1]
	sc.beginSweep(len(g.Instrs))
	sc.prepareWindow(g, start, window)
	span := sc.pipelineSpan(cm, window, k, pr, frac)
	sc.loadAxes(g, asg)
	return span + boundaryCostUs(g, cm, start, window, sc)
}

// serialCost is the unpartitioned execution time of the window: the plain
// sum of operator times (the forward pass is a dependency chain), priced
// under the active routing profile.
func serialCost(cm *cost.Model, window []*ir.Instr, prof *netsim.RoutingProfile, frac float64) float64 {
	pr := cm.NewA2APricer(prof)
	total := 0.0
	for _, in := range window {
		total += predictInstr(cm, in, pr, frac)
	}
	return total
}
