// Package baselines reproduces the scheduling strategies of the systems the
// paper compares against (Sec. 7): DeepSpeed (sequential execution, padded
// all-to-alls), RAF (compiler-generated kernels, no MoE overlap), and Tutel
// (capacity-dimension partitioning of the all-to-all + experts core, with
// the overlap degree searched over {1, 2, 4, 8}).
package baselines

import (
	"fmt"
	"math"

	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/passes/partition"
)

// Spec describes one baseline framework.
type Spec struct {
	Name string
	// ComputeScale models kernel quality relative to the RAF compiler
	// (PyTorch eager kernels run slightly slower; Tutel's fused MoE
	// dispatch recovers part of that).
	ComputeScale float64
	// Memory is the framework's memory profile for OOM checks.
	Memory model.MemoryProfile
	// KnownOOM records "<model>|<cluster>" configurations the paper
	// observed running out of memory that a monotone footprint model
	// cannot derive (the paper's DeepSpeed OOMs on GPT2-S-MoE/A100 while
	// running the strictly larger GPT2-L-MoE/A100 — an allocator quirk of
	// that DeepSpeed version, reproduced here by record; see DESIGN.md §5).
	KnownOOM map[string]bool
}

// OOMs reports whether the framework runs out of memory for the given
// built model, combining the physical footprint estimate with the paper's
// recorded observations.
func (s Spec) OOMs(b *model.Built) bool {
	if s.KnownOOM[b.Config.Name+"|"+b.Cluster.Name] {
		return true
	}
	return !b.FitsMemory(s.Memory)
}

// Framework specs used across the evaluation.
var (
	DeepSpeed = Spec{
		Name: "DeepSpeed", ComputeScale: 0.92, Memory: model.MemoryDeepSpeed,
		KnownOOM: map[string]bool{"GPT2-S-MoE|A100": true},
	}
	RAF   = Spec{Name: "RAF", ComputeScale: 1.0, Memory: model.MemoryCompiled}
	Tutel = Spec{Name: "Tutel", ComputeScale: 0.96, Memory: model.MemoryTutel}
)

// TutelDegrees is the overlap-degree search space used in the paper's
// experiments.
var TutelDegrees = []int{1, 2, 4, 8}

// SequentialPlan returns the unmodified training graph (DeepSpeed/RAF
// execution: one op at a time, all-to-alls fully exposed).
func SequentialPlan(b *model.Built) *ir.Graph { return b.Graph }

// TutelPlan partitions each MoE layer's [dispatch a2a, experts, combine
// a2a] core — forward and backward — along the capacity dimension with the
// given degree, forming the Tutel communication-computation pipeline
// (paper Fig. 4b / Fig. 5a).
func TutelPlan(b *model.Built, degree int) (*ir.Graph, error) {
	if degree < 1 {
		return nil, fmt.Errorf("baselines: invalid overlap degree %d", degree)
	}
	if degree == 1 {
		return b.Graph, nil
	}
	if degree > b.CapacityC {
		degree = b.CapacityC
	}
	g := b.Graph
	var ranges []partition.Range
	addWindow := func(start, end int) error {
		window := g.Instrs[start : end+1]
		asg := partition.InferAxes(g, window, false)
		if asg == nil {
			return fmt.Errorf("baselines: a2a+experts window [@%d,@%d] not partitionable", start, end)
		}
		ranges = append(ranges, partition.Range{Start: start, End: end, K: degree, Axes: asg})
		return nil
	}
	for _, h := range b.MoE {
		if err := addWindow(h.DispatchA2A, h.CombineA2A); err != nil {
			return nil, err
		}
		if err := addWindow(h.BwdCombineA2A, h.BwdDispatchA2A); err != nil {
			return nil, err
		}
	}
	return partition.Apply(g, ranges)
}

// BestTutelPlan searches TutelDegrees with the predictor and returns the
// fastest plan, mirroring the paper's per-experiment degree search.
func BestTutelPlan(b *model.Built, predict func(*ir.Graph) (float64, error)) (*ir.Graph, int, error) {
	bestT := math.Inf(1)
	var bestG *ir.Graph
	bestD := 1
	for _, d := range TutelDegrees {
		g, err := TutelPlan(b, d)
		if err != nil {
			return nil, 0, err
		}
		t, err := predict(g)
		if err != nil {
			return nil, 0, err
		}
		if t < bestT {
			bestT, bestG, bestD = t, g, d
		}
	}
	return bestG, bestD, nil
}

// FasterMoE is the PPoPP'22 system (He et al., discussed in paper Sec. 8):
// pairwise-overlapped a2a/expert scheduling plus *dynamic shadowing* of
// popular experts — the hottest expert's weights are replicated to every
// device so its tokens never cross the network, at the price of
// synchronizing that expert's gradients.
var FasterMoE = Spec{Name: "FasterMoE", ComputeScale: 0.95, Memory: model.MemoryTutel}

// FasterMoEPlan builds the FasterMoE schedule: Tutel-style degree-2
// capacity partitioning of the MoE cores, all-to-all payloads shrunk by the
// shadowed expert's token share, and the shadowed expert's gradient synced
// on each MoE layer's all-reduce bucket. shadowShare is the fraction of
// routed tokens destined to the hottest expert (from a routing profile);
// shadowing pays off only when one expert is hot, so shares below 1/E are
// treated as no shadowing.
func FasterMoEPlan(b *model.Built, shadowShare float64) (*ir.Graph, error) {
	uniform := 1.0 / float64(b.TotalExperts)
	if shadowShare < 2*uniform {
		shadowShare = 0 // not worth replicating anything
	}
	g := b.Graph
	if shadowShare > 0 {
		// The graph's instructions are shared and never written
		// (DESIGN.md §2, §7): each one the payload edits touch is replaced
		// by a copy of its own, and the rest stay shared.
		cfg := b.Config
		shadowWeights := 2 * int64(cfg.Hidden) * int64(cfg.FFNMult*cfg.Hidden) * cfg.DType.Size()
		g = ir.Derive(b.Graph, 0, len(b.Graph.Instrs))
		for _, in := range b.Graph.Instrs {
			switch {
			case in.Op == ir.OpAllToAll:
				c := *in
				c.Bytes = int64(float64(in.Bytes) * (1 - shadowShare))
				in = &c
			case in.Op == ir.OpAllReduce && in.Layer >= 0 && cfg.IsMoELayer(in.Layer):
				// The shadowed expert's gradients ride each MoE layer's
				// existing gradient bucket.
				c := *in
				c.Bytes += shadowWeights
				in = &c
			}
			g.Emit(in)
		}
	}
	// FasterMoE's smart schedule: pairwise a2a/expert overlap == capacity
	// partitioning at degree 2 of each MoE core.
	copied := *b
	copied.Graph = g
	return TutelPlan(&copied, 2)
}
