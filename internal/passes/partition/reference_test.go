package partition

import (
	"maps"
	"math"
	"math/rand/v2"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/netsim"
)

// The map-based partition-axis solver the scratch solver (solveAxes)
// replaced, kept as its slower reference: a fresh Assignment map per
// window, materialized combination lists and per-depth backtracking
// slices. TestSolveAxesMatchesReference holds the two equal on every
// window the DP visits.

// refInferAxes solves the constraint satisfaction problem of Sec. 5.2 for the
// given window of instructions: find a partition axis for every non-weight
// tensor the window touches such that each operator's partition constraint
// F_Z holds and tensors keep a single axis throughout. Returns nil when the
// window is not partitionable (e.g. it contains a gate that cannot route
// partial batches).
//
// Domain ordering encodes the paper's preference: capacity-axis partitions
// are tried before Airr, so windows covering only all-to-alls and experts
// get the simple Tutel-style partition, while anything extending past the
// gather (or through the gate) is forced onto Airr by the constraints.
func refInferAxes(g *ir.Graph, window []*ir.Instr, gatePartialBatch bool) Assignment {
	asg := make(Assignment)
	// Weights are never partitioned; pre-assign them.
	for _, in := range window {
		for _, t := range in.Ins {
			if g.Tensor(t).Kind == ir.Weight {
				asg[t] = AxisNP
			}
		}
	}
	if !refSolve(g, window, 0, asg, gatePartialBatch) {
		return nil
	}
	return asg
}

// refSolve assigns axes instruction by instruction with backtracking.
func refSolve(g *ir.Graph, window []*ir.Instr, idx int, asg Assignment, gatePartial bool) bool {
	if idx == len(window) {
		return true
	}
	in := window[idx]
	for _, combo := range refOpCombos(g, in, gatePartial) {
		var touched []int
		ok := true
		for _, bind := range combo {
			if cur, exists := asg[bind.tensor]; exists {
				if cur != bind.axis {
					ok = false
					break
				}
				continue
			}
			asg[bind.tensor] = bind.axis
			touched = append(touched, bind.tensor)
		}
		if ok && refSolve(g, window, idx+1, asg, gatePartial) {
			return true
		}
		for _, t := range touched {
			delete(asg, t)
		}
	}
	return false
}

type refBinding struct {
	tensor int
	axis   Axis
}

// refOpCombos enumerates the valid axis assignments F_Z for one instruction,
// in preference order.
func refOpCombos(g *ir.Graph, in *ir.Instr, gatePartial bool) [][]refBinding {
	nonWeightIns := func() []int {
		var ids []int
		for _, t := range in.Ins {
			if g.Tensor(t).Kind != ir.Weight {
				ids = append(ids, t)
			}
		}
		return ids
	}

	switch in.Op {
	case ir.OpLayerNorm, ir.OpGeLU, ir.OpAdd, ir.OpSoftmax, ir.OpMatMul,
		ir.OpAttnScores, ir.OpAttnContext, ir.OpEmbedding:
		// Row/batch-parallel operators: all activation inputs and outputs
		// split along the batch dimension; weights stay whole.
		var combo []refBinding
		for _, t := range nonWeightIns() {
			combo = append(combo, refBinding{t, AxisBatch})
		}
		for _, t := range in.Outs {
			combo = append(combo, refBinding{t, AxisBatch})
		}
		return [][]refBinding{combo}

	case ir.OpGate:
		// The gate consumes a batch slice and emits an irregularly
		// partitioned dispatch buffer plus routing metadata — but only if
		// the routing decision is computable from partial batches
		// (Sec. 2.3 Challenge 2; Batch Prioritized Routing is not).
		if !gatePartial {
			return nil
		}
		combo := []refBinding{}
		for _, t := range nonWeightIns() {
			combo = append(combo, refBinding{t, AxisBatch})
		}
		for _, t := range in.Outs {
			combo = append(combo, refBinding{t, AxisIrr})
		}
		return [][]refBinding{combo}

	case ir.OpAllToAll, ir.OpExpertFFN:
		// Capacity-dim partition while the range covers only a2a+experts;
		// irregular otherwise. Both propagate input axis to output —
		// except expert weight gradients, which become partial sums
		// accumulated across chunks.
		var combos [][]refBinding
		for _, ax := range []Axis{AxisCap, AxisIrr} {
			var combo []refBinding
			for _, t := range nonWeightIns() {
				combo = append(combo, refBinding{t, ax})
			}
			outAx := ax
			if in.Op == ir.OpExpertFFN && in.Grad == ir.GradDW {
				outAx = AxisPartial
			}
			for _, t := range in.Outs {
				combo = append(combo, refBinding{t, outAx})
			}
			combos = append(combos, combo)
		}
		return combos

	case ir.OpMoEGather:
		// The gather only accepts irregularly partitioned inputs (a
		// capacity split would scatter each partition's tokens across the
		// whole output, Fig. 5a) and restores the batch partition.
		var combo []refBinding
		for _, t := range nonWeightIns() {
			combo = append(combo, refBinding{t, AxisIrr})
		}
		for _, t := range in.Outs {
			combo = append(combo, refBinding{t, AxisBatch})
		}
		return [][]refBinding{combo}
	}
	// Any other operator (communication collectives other than a2a, loss,
	// optimizer...) cannot be partitioned.
	return nil
}

// refMaxParts returns the largest partition count the assignment supports: no
// tensor can be split into more parts than its partition dimension holds.
func refMaxParts(g *ir.Graph, asg Assignment) int {
	limit := int(^uint(0) >> 1)
	for t, ax := range asg {
		shape := g.Tensor(t).Shape
		var dim int
		switch ax {
		case AxisNP, AxisPartial:
			continue
		case AxisBatch:
			dim = shape[0]
		case AxisCap, AxisIrr:
			if len(shape) >= 2 {
				dim = shape[1]
			} else {
				dim = shape[0]
			}
		}
		if dim < limit {
			limit = dim
		}
	}
	return limit
}

// refModels builds the three benchmark models on a 16-GPU V100 fleet.
func refModels(t *testing.T) map[string]*model.Built {
	t.Helper()
	out := make(map[string]*model.Built)
	for _, cfg := range []model.Config{model.GPT2SMoE(), model.GPT2LMoE(), model.ViTSMoE()} {
		if cfg.BatchPerGPU == 0 {
			cfg.BatchPerGPU = cfg.PaperBatchSize("V100")
		}
		b, err := model.Build(cfg, hw.V100Cluster(2))
		if err != nil {
			t.Fatal(err)
		}
		out[cfg.Name] = b
	}
	return out
}

// dpBounds returns the group boundaries of Run's DP on g under default
// options and uniform pricing.
func dpBounds(g *ir.Graph, cm *cost.Model) []int {
	var opts Options
	opts.fillDefaults()
	sc := getScratch()
	defer putScratch(sc)
	sc.pricePrefix(g, cm, cm.NewA2APricer(nil), 1)
	return makeGroups(sc.prefix, opts.GroupUs, nil)
}

// dpWindows returns every candidate window Run's DP visits on g under
// default options and uniform pricing: the group windows
// [bounds[i], bounds[j]) spanning at most MaxRangeGroups groups.
func dpWindows(g *ir.Graph, cm *cost.Model) [][]*ir.Instr {
	var opts Options
	opts.fillDefaults()
	bounds := dpBounds(g, cm)
	var ws [][]*ir.Instr
	for j := 1; j < len(bounds); j++ {
		for i := max(0, j-opts.MaxRangeGroups); i < j; i++ {
			ws = append(ws, g.Instrs[bounds[i]:bounds[j]])
		}
	}
	return ws
}

// The scratch solver must agree with the map-based reference on every
// window the DP visits: solvability, the axis of every tensor (including
// which tensors the solution covers) and the partition-count limit.
func TestSolveAxesMatchesReference(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	for name, b := range refModels(t) {
		g := b.Graph
		windows := dpWindows(g, cost.NewModel(b.Cluster))
		for _, gatePartial := range []bool{true, false} {
			solvable := 0
			for _, w := range windows {
				ref := refInferAxes(g, w, gatePartial)
				ok := sc.solveAxes(g, w, gatePartial)
				if ok != (ref != nil) {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: solvable %v, reference %v",
						name, gatePartial, w[0].ID, w[len(w)-1].ID, ok, ref != nil)
				}
				if !ok {
					continue
				}
				solvable++
				for id := range g.Tensors {
					if got, want := sc.axisOf(id), ref[id]; got != want {
						t.Fatalf("%s gatePartial=%v window @%d..@%d: tensor %%%d axis %v, reference %v",
							name, gatePartial, w[0].ID, w[len(w)-1].ID, id, got, want)
					}
				}
				if got := sc.assignment(); !maps.Equal(got, ref) {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: assignment covers %d tensors, reference %d",
						name, gatePartial, w[0].ID, w[len(w)-1].ID, len(got), len(ref))
				}
				if got, want := sc.maxParts(g), refMaxParts(g, ref); got != want {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: maxParts %d, reference %d",
						name, gatePartial, w[0].ID, w[len(w)-1].ID, got, want)
				}
			}
			if solvable == 0 || solvable == len(windows) {
				t.Errorf("%s gatePartial=%v: %d of %d windows solvable; want a mix",
					name, gatePartial, solvable, len(windows))
			}
		}
	}
}

// refPipelineSpan simulates a window's stage pipeline the direct way: the
// issue order schedulePlan materializes, dependencies found through the
// operands' producers and a position map, and a fresh end-time map per
// call. frac is the profiled payload fraction (Options.PayloadFraction).
func refPipelineSpan(g *ir.Graph, cm *cost.Model, window []*ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	pos := make(map[int]int, len(window))
	for i, in := range window {
		pos[in.ID] = i
	}
	end := make(map[instanceRef]float64)
	var clock [2]float64
	var tmp ir.Instr
	span := 0.0
	for _, ref := range schedulePlan(window, k) {
		in := window[ref.pos]
		stream := 0
		if in.IsComm() {
			stream = 1
		}
		start := clock[stream]
		for _, x := range in.Ins {
			if d, ok := pos[g.Producer(x)]; ok {
				if e := end[instanceRef{d, ref.part}]; e > start {
					start = e
				}
			}
		}
		e := start + instanceDur(cm, in, k, pr, frac, &tmp)
		end[ref] = e
		clock[stream] = e
		if e > span {
			span = e
		}
	}
	return span
}

// pipelineSpan must be bit-equal to the schedulePlan-order reference
// simulation on every window the DP visits, at every partition count.
func TestPipelineSpanMatchesReference(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	for name, b := range refModels(t) {
		g := b.Graph
		cm := cost.NewModel(b.Cluster)
		pr := cm.NewA2APricer(nil)
		sc.beginSweep(len(g.Instrs))
		for _, w := range dpWindows(g, cm) {
			sc.prepareWindow(g, w)
			for k := 2; k <= 8; k++ {
				got, want := sc.pipelineSpan(cm, w, k, pr, 1), refPipelineSpan(g, cm, w, k, pr, 1)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s window @%d..@%d k=%d: span %v, reference %v",
						name, w[0].ID, w[len(w)-1].ID, k, got, want)
				}
			}
		}
	}
}

// pipelineSpan resumed across window extensions must be bit-equal to the
// reference simulation of each whole window. The windows grow from every
// DP start in Run's order, under uniform and Zipf-1.2 pricing, and each
// window prices a seeded random subset of k = 2..8, so a k skipped for
// some windows must catch up on its next use. The resumes cover both
// rules: a new stage beginning at the old window end, and a last stage
// the extension grew.
func TestPipelineSpanResumeMatchesReference(t *testing.T) {
	var opts Options
	opts.fillDefaults()
	sc := getScratch()
	defer putScratch(sc)
	for name, b := range refModels(t) {
		g := b.Graph
		cm := cost.NewModel(b.Cluster)
		bounds := dpBounds(g, cm)
		n := len(bounds) - 1
		for _, prof := range []*netsim.RoutingProfile{nil, netsim.ZipfProfile(b.Cluster.TotalGPUs(), 1.2)} {
			pr := cm.NewA2APricer(prof)
			sc.beginSweep(len(g.Instrs))
			rng := rand.New(rand.NewPCG(20, 1))
			grewStage, newStage := 0, 0
			for i := 0; i < n; i++ {
				sc.beginWindow()
				for j := i + 1; j <= min(n, i+opts.MaxRangeGroups); j++ {
					w := g.Instrs[bounds[i]:bounds[j]]
					sc.extendWindow(g, w)
					for k := 2; k <= 8; k++ {
						if rng.IntN(2) == 0 {
							continue
						}
						if st := sc.kState(k); st.start == sc.startGen {
							if sc.stOff[st.stage+1] == st.n {
								newStage++
							} else {
								grewStage++
							}
						}
						got, want := sc.pipelineSpan(cm, w, k, pr, 1), refPipelineSpan(g, cm, w, k, pr, 1)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s profiled=%v window @%d..@%d k=%d: resumed span %v, reference %v",
								name, prof != nil, w[0].ID, w[len(w)-1].ID, k, got, want)
						}
					}
				}
			}
			if grewStage == 0 || newStage == 0 {
				t.Errorf("%s profiled=%v: %d resumes into a grown stage, %d at a new stage; want both",
					name, prof != nil, grewStage, newStage)
			}
		}
	}
}
