package partition

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"lancet/internal/ir"
)

// FLOPs must be conserved by the rewrite: the k instances of every
// partitioned op sum back to the original (Partition/Reconstruct add
// bookkeeping ops but no floating point work).
func TestRewriteFLOPConservation(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	var origF, newF float64
	for _, in := range b.Graph.Instrs {
		origF += in.FLOPs
	}
	for _, in := range res.Graph.Instrs {
		newF += in.FLOPs
	}
	if rel := math.Abs(newF-origF) / origF; rel > 1e-9 {
		t.Errorf("FLOPs drifted by %.2e (%v -> %v)", rel, origF, newF)
	}
}

// plumbingAxes returns the axis of the tensor each split or reconstruct
// op of res.Graph splits or restores, in the range whose pipeline emitted
// the op, as the reference solver (refInferAxes) solves that range of g,
// the graph Run rewrote. The rewrite emits each range's pipeline
// contiguously, in start order: its split ops, K micro-instances of each
// window op, then its reconstruct ops.
func plumbingAxes(t *testing.T, g *ir.Graph, res *Result, gatePartial bool) map[*ir.Instr]Axis {
	t.Helper()
	out := res.Graph.Instrs
	axes := make(map[*ir.Instr]Axis)
	at, pos := 0, 0
	for _, r := range slices.SortedFunc(slices.Values(res.Ranges), func(a, b Range) int { return cmp.Compare(a.Start, b.Start) }) {
		ref := refInferAxes(g, g.Instrs[r.Start:r.End+1], gatePartial)
		if ref == nil {
			t.Fatalf("range [%d,%d]: the reference finds no axes", r.Start, r.End)
		}
		at += r.Start - pos // instructions the rewrite kept
		for ; at < len(out) && out[at].Op == ir.OpPartitionSplit; at++ {
			axes[out[at]] = ref[out[at].Ins[0]]
		}
		for end := at + r.K*(r.End-r.Start+1); at < end; at++ {
			if in := out[at]; in.NumParts != r.K || in.Op == ir.OpPartitionSplit || in.Op == ir.OpReconstruct {
				t.Fatalf("@%d %s: not a micro-instance of [%d,%d]", at, in, r.Start, r.End)
			}
		}
		for ; at < len(out) && out[at].Op == ir.OpReconstruct; at++ {
			axes[out[at]] = ref[out[at].Outs[0]]
		}
		pos = r.End + 1
	}
	for _, in := range out {
		if _, ok := axes[in]; !ok && (in.Op == ir.OpPartitionSplit || in.Op == ir.OpReconstruct) {
			t.Fatalf("%s: outside every pipeline", in)
		}
	}
	return axes
}

// Batch- and capacity-axis splits are views (free); only irregular
// boundaries pay memory traffic.
func TestPlumbingCosts(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	for in, axis := range plumbingAxes(t, b.Graph, res, true) {
		irr := axis == AxisIrr
		if irr && in.Bytes == 0 {
			t.Errorf("%s: irregular boundary op should cost memory traffic", in.Name)
		}
		if !irr && in.Bytes != 0 {
			t.Errorf("%s: view boundary op (axis %s) should be free", in.Name, axis)
		}
		if dur := cm.PredictInstr(in); !irr && dur != 0 {
			t.Errorf("%s: view op priced at %v us, want 0", in.Name, dur)
		}
	}
}

// Partition tensors must tile their original exactly along the chosen axis.
func TestInstanceShapesTile(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	for in, axis := range plumbingAxes(t, b.Graph, res, true) {
		if in.Op != ir.OpReconstruct || axis == AxisPartial {
			continue
		}
		orig := g.Tensor(in.Outs[0])
		dim := 0
		if axis != AxisBatch && len(orig.Shape) >= 2 {
			dim = 1
		}
		sum := 0
		for _, piece := range in.Ins {
			sum += g.Tensor(piece).Shape[dim]
		}
		if sum != orig.Shape[dim] {
			t.Errorf("%s: pieces cover %d of axis dim %d", in.Name, sum, orig.Shape[dim])
		}
	}
}

// Pipeline cost is monotone in a window's op durations and never below the
// critical path of a single partition chain.
func TestPipelineCostLowerBound(t *testing.T) {
	b, cm := buildFixture(t)
	h := b.MoE[0]
	window := b.Graph.Instrs[h.Gate : h.Gather+1]
	for k := 2; k <= 8; k *= 2 {
		p, ok := PipelinePredictUs(b.Graph, cm, h.Gate, h.Gather, k, true)
		if !ok {
			t.Fatal("window not partitionable")
		}
		// One partition's chain: every op at 1/k size, run serially.
		chain := 0.0
		for _, in := range window {
			chain += instanceDur(cm, in, k, cm.NewA2APricer(nil), 1)
		}
		if p < chain-1e-6 {
			t.Errorf("k=%d: pipeline %v us below single-chain critical path %v us", k, p, chain)
		}
		serial := serialUs(cm, window)
		if p > float64(k)*serial {
			t.Errorf("k=%d: pipeline %v us exceeds fully serialized %v us", k, p, float64(k)*serial)
		}
	}
}

// Property: the DP's T(N) never exceeds the serial forward time, for any
// group size.
func TestDPNeverWorseThanSerialProperty(t *testing.T) {
	b, cm := buildFixture(t)
	f := func(gRaw uint8) bool {
		groupUs := 500 + float64(gRaw)*40 // 0.5ms .. 10.7ms
		res, err := Run(b.Graph, cm, Options{GroupUs: groupUs, GatePartialBatch: true})
		if err != nil {
			return false
		}
		return res.ForwardUs <= res.SerialForwardUs+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// Property: schedulePlan covers every (op, partition) pair exactly once.
func TestSchedulePlanCoverageProperty(t *testing.T) {
	b, _ := buildFixture(t)
	h := b.MoE[0]
	window := b.Graph.Instrs[h.Gate : h.Gather+1]
	f := func(kRaw uint8) bool {
		k := 1 + int(kRaw)%8
		plan := schedulePlan(window, k)
		seen := make(map[instanceRef]bool)
		for _, ref := range plan {
			if seen[ref] {
				return false
			}
			seen[ref] = true
		}
		return len(plan) == len(window)*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
