package partition

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/netsim"
)

// The map-based partition-axis solver the stamped solver (solveAxes)
// replaced, kept as its slower reference: a fresh map from tensor ID to
// axis per window, materialized combination lists and per-depth
// backtracking slices. TestSolveAxesMatchesReference holds the two equal
// on every window the DP visits.

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
func refInferAxes(g *ir.Graph, window []*ir.Instr, gatePartialBatch bool) map[int]Axis {
	asg := make(map[int]Axis)
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
func refSolve(g *ir.Graph, window []*ir.Instr, idx int, asg map[int]Axis, gatePartial bool) bool {
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
func refMaxParts(g *ir.Graph, asg map[int]Axis) int {
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

// refBoundaryCostUs is boundaryCostUs on a reference solution: per-call
// maps for the window's produced and already-priced tensors, and a scan of
// the instructions after the window for a consumer instead of the graph's
// last-use table.
func refBoundaryCostUs(g *ir.Graph, cm *cost.Model, start int, window []*ir.Instr, asg map[int]Axis) float64 {
	copyCost := func(t int) float64 {
		return cm.PredictInstr(&ir.Instr{Op: ir.OpReconstruct, Bytes: 2 * g.Tensor(t).Bytes()})
	}
	produced, seen := map[int]bool{}, map[int]bool{}
	for _, in := range window {
		for _, t := range in.Outs {
			produced[t] = true
		}
	}
	total := 0.0
	for _, in := range window {
		for _, t := range in.Ins {
			if !produced[t] && !seen[t] && asg[t] == AxisIrr {
				total += copyCost(t) // irregular boundary split
			}
			seen[t] = true
		}
	}
	after := g.Instrs[start+len(window):]
	for _, in := range window {
		for _, t := range in.Outs {
			if asg[t] == AxisIrr && slices.ContainsFunc(after, func(c *ir.Instr) bool { return slices.Contains(c.Ins, t) }) {
				total += copyCost(t) // irregular boundary reconstruct
			}
		}
	}
	return total
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
// [bounds[i], bounds[j]) spanning at most MaxRangeGroups groups, as
// program positions {start, end} with end exclusive.
func dpWindows(g *ir.Graph, cm *cost.Model) [][2]int {
	var opts Options
	opts.fillDefaults()
	bounds := dpBounds(g, cm)
	var ws [][2]int
	for j := 1; j < len(bounds); j++ {
		for i := max(0, j-opts.MaxRangeGroups); i < j; i++ {
			ws = append(ws, [2]int{bounds[i], bounds[j]})
		}
	}
	return ws
}

// The scratch solver must agree with the map-based reference on every
// window the DP visits: solvability, the axis of every tensor (including
// which tensors the solution covers) and the partition-count limit. The
// boundary cost priced under each solution must equal the reference's
// bit for bit.
func TestSolveAxesMatchesReference(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	for name, b := range refModels(t) {
		g := b.Graph
		cm := cost.NewModel(b.Cluster)
		windows := dpWindows(g, cm)
		for _, gatePartial := range []bool{true, false} {
			solvable := 0
			for _, lh := range windows {
				w := g.Instrs[lh[0]:lh[1]]
				ref := refInferAxes(g, w, gatePartial)
				ok := sc.solveAxes(g, w, gatePartial)
				if ok != (ref != nil) {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: solvable %v, reference %v",
						name, gatePartial, lh[0], lh[1]-1, ok, ref != nil)
				}
				if !ok {
					continue
				}
				solvable++
				for id := range g.Tensors {
					if got, want := sc.axisOf(id), ref[id]; got != want {
						t.Fatalf("%s gatePartial=%v window @%d..@%d: tensor %%%d axis %v, reference %v",
							name, gatePartial, lh[0], lh[1]-1, id, got, want)
					}
				}
				// The trail holds each bound tensor once: it covers the
				// reference's tensors exactly when it is as long and each
				// of its tensors is one of them.
				covered := len(sc.trail) == len(ref)
				for _, id := range sc.trail {
					_, in := ref[id]
					covered = covered && in
				}
				if !covered {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: solution covers %d tensors, reference %d",
						name, gatePartial, lh[0], lh[1]-1, len(sc.trail), len(ref))
				}
				if got, want := sc.maxParts(g), refMaxParts(g, ref); got != want {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: maxParts %d, reference %d",
						name, gatePartial, lh[0], lh[1]-1, got, want)
				}
				got, want := boundaryCostUs(g, cm, lh[0], w, sc), refBoundaryCostUs(g, cm, lh[0], w, ref)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s gatePartial=%v window @%d..@%d: boundary %v us, reference %v us",
						name, gatePartial, lh[0], lh[1]-1, got, want)
				}
			}
			if solvable == 0 || solvable == len(windows) {
				t.Errorf("%s gatePartial=%v: %d of %d windows solvable; want a mix",
					name, gatePartial, solvable, len(windows))
			}
		}
	}
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
// original program order. The DP (dpScratch.pipelineSpan) and the rewrite
// (rewriter.emitPipeline) walk the same order over stage offsets; this
// materialized form is their reference.
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

// refPipelineSpan simulates a window's stage pipeline the direct way: the
// issue order schedulePlan materializes, dependencies found through the
// operands' producers and a position map, and a fresh end-time map per
// call. frac is the profiled payload fraction (Options.PayloadFraction).
func refPipelineSpan(g *ir.Graph, cm *cost.Model, start int, window []*ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	pos := make(map[int]int, len(window))
	for i := range window {
		pos[start+i] = i
	}
	end := make(map[instanceRef]float64)
	var clock [2]float64
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
		e := start + instanceDur(cm, in, k, pr, frac)
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
		for _, lh := range dpWindows(g, cm) {
			w := g.Instrs[lh[0]:lh[1]]
			sc.prepareWindow(g, lh[0], w)
			for k := 2; k <= 8; k++ {
				got, want := sc.pipelineSpan(cm, w, k, pr, 1), refPipelineSpan(g, cm, lh[0], w, k, pr, 1)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s window @%d..@%d k=%d: span %v, reference %v",
						name, lh[0], lh[1]-1, k, got, want)
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
				sc.beginWindow(bounds[i])
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
						got, want := sc.pipelineSpan(cm, w, k, pr, 1), refPipelineSpan(g, cm, bounds[i], w, k, pr, 1)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s profiled=%v window @%d..@%d k=%d: resumed span %v, reference %v",
								name, prof != nil, bounds[i], bounds[j]-1, k, got, want)
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

// refRun is Run's DP without the repeated-block reuse, kept as its slower
// reference: every start indexes, solves and simulates every one of its
// windows, on the scratch's resumed simulations, and the chosen ranges are
// backtracked as Run does. It returns no rewritten graph,
// and it returns every partitioned candidate it priced, start by start in
// sweep order, as Run's sweep records them.
func refRun(g *ir.Graph, cm *cost.Model, opts Options) (*Result, []candRec) {
	opts.fillDefaults()
	pr := cm.NewA2APricer(opts.Profile)
	sc := getScratch()
	defer putScratch(sc)
	fwdEnd := sc.pricePrefix(g, cm, pr, opts.PayloadFraction)
	sc.beginSweep(fwdEnd)
	prefix := sc.prefix
	bounds := makeGroups(prefix, opts.GroupUs, nil)
	n := len(bounds) - 1

	res := &Result{}
	var cands []candRec
	T := make([]float64, n+1)
	best := make([]choice, n+1)
	for j := 1; j <= n; j++ {
		T[j] = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		last := n
		if opts.MaxRangeGroups < n-i {
			last = i + opts.MaxRangeGroups
		}
		sc.beginWindow(bounds[i])
		hasA2A := false
		for j := i + 1; j <= last; j++ {
			window := g.Instrs[bounds[i]:bounds[j]]
			sc.extendWindow(g, window)
			hasA2A = hasA2A || windowHasA2A(g.Instrs[bounds[j-1]:bounds[j]])
			serial := prefix[bounds[j]] - prefix[bounds[i]]
			if t := T[i] + serial; t < T[j] {
				T[j] = t
				best[j] = choice{from: i, k: 1, sUs: serial}
			}
			if !hasA2A || !sc.solveAxes(g, window, opts.GatePartialBatch) {
				continue
			}
			kmax := opts.MaxPartitions
			if m := sc.maxParts(g); m < kmax {
				kmax = m
			}
			boundary := boundaryCostUs(g, cm, bounds[i], window, sc)
			for k := 2; k <= kmax; k++ {
				p := sc.pipelineSpan(cm, window, k, pr, opts.PayloadFraction) + boundary
				res.Evaluations++
				cands = append(cands, candRec{d: int32(j - i), k: int32(k), us: p})
				if t := T[i] + p; t < T[j] {
					T[j] = t
					best[j] = choice{from: i, k: k, pUs: p, sUs: serial}
				}
			}
		}
	}
	res.ForwardUs = T[n]
	res.SerialForwardUs = prefix[fwdEnd]
	for j := n; j > 0; {
		c := best[j]
		if c.k >= 2 {
			res.Ranges = append(res.Ranges, Range{
				Start: bounds[c.from], End: bounds[j] - 1,
				K: c.k, PredictedUs: c.pUs, SerialUs: c.sUs,
			})
		}
		j = c.from
	}
	slices.Reverse(res.Ranges)
	return res, cands
}

// dpMatches runs Run's sweep on g and reports, per DP start, the earlier
// start it repeats and the number of leading groups the two share (r = -1
// when there is none), every candidate the sweep recorded, in sweep order,
// and how many of them it reused. It walks the start table again, in the
// sweep's order, over the sweep's groups and records.
func dpMatches(g *ir.Graph, cm *cost.Model, opts Options) (match [][2]int, recs []candRec, reused int) {
	opts.fillDefaults()
	sc := getScratch()
	defer putScratch(sc)
	sc.sweep(g, cm, cm.NewA2APricer(opts.Profile), opts)
	n := len(sc.bounds) - 1
	sc.matchGen++
	for i := 0; i < n; i++ {
		r, m := sc.matchStart(g, i, min(n-i, opts.MaxRangeGroups))
		if m == 0 {
			r = -1
		}
		match = append(match, [2]int{r, m})
		for _, c := range sc.recs[sc.recOff[i]:sc.recOff[i+1]] {
			if int(c.d) <= m {
				reused++
			}
		}
	}
	return match, slices.Clone(sc.recs), reused
}

// sameCandidates fails t unless the candidates Run's sweep recorded equal
// the reference sweep's, price for price bit for bit, so a reused price
// that differs fails even where it does not change the plan.
func sameCandidates(t *testing.T, name string, got, want []candRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", name, len(got), len(want))
	}
	for x, c := range got {
		w := want[x]
		if c.d != w.d || c.k != w.k || math.Float64bits(c.us) != math.Float64bits(w.us) {
			t.Fatalf("%s: candidate %d is %d groups at k=%d for %v us, reference %d groups at k=%d for %v us",
				name, x, c.d, c.k, c.us, w.d, w.k, w.us)
		}
	}
}

// sameResult fails t unless Run's result got equals the reference sweep's
// want: the same ranges at bit-equal prices, the same evaluation count and
// bit-equal forward times.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	bits := math.Float64bits
	if got.Evaluations != want.Evaluations || bits(got.ForwardUs) != bits(want.ForwardUs) ||
		bits(got.SerialForwardUs) != bits(want.SerialForwardUs) || len(got.Ranges) != len(want.Ranges) {
		t.Fatalf("%s: %d evaluations, forward %v of serial %v us, %d ranges; reference %d, %v of %v us, %d",
			name, got.Evaluations, got.ForwardUs, got.SerialForwardUs, len(got.Ranges),
			want.Evaluations, want.ForwardUs, want.SerialForwardUs, len(want.Ranges))
	}
	for i, r := range got.Ranges {
		w := want.Ranges[i]
		if r.Start != w.Start || r.End != w.End || r.K != w.K ||
			bits(r.PredictedUs) != bits(w.PredictedUs) || bits(r.SerialUs) != bits(w.SerialUs) {
			t.Fatalf("%s: range %d is @%d..@%d k=%d at %v of serial %v us; reference @%d..@%d k=%d at %v of %v us",
				name, i, r.Start, r.End, r.K, r.PredictedUs, r.SerialUs,
				w.Start, w.End, w.K, w.PredictedUs, w.SerialUs)
		}
	}
}

// Run reuses a repeated block's candidate prices; the reference sweep
// prices every window afresh. The two must agree on every dW-scheduled
// plan-cold graph (GPT2-S, GPT2-L and ViT-S on the five planbench fleets)
// under session options, each with uniform, capacity-clipped Zipf 1.2 and
// capacity-clipped hot-expert 0.3 routing at its payload fraction, with a
// partial-batch gate and with BPR, and under each routing at ι of 1, 3
// and 12 groups, ρ of 2 and 64, and γ at half and twice the session's.
func TestRunMatchesReferenceSweep(t *testing.T) {
	a100, err := hw.ClassForGPU("A100", 2)
	if err != nil {
		t.Fatal(err)
	}
	v100, err := hw.ClassForGPU("V100", 2)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := hw.ClusterFromClasses([]hw.NodeClass{a100, v100})
	if err != nil {
		t.Fatal(err)
	}
	spine, err := hw.V100Cluster(4).WithTopology(hw.Topology{NodesPerRack: 2, Oversubscription: 4}.DefaultRacks())
	if err != nil {
		t.Fatal(err)
	}
	fleets := []hw.Cluster{hw.V100Cluster(2), hw.A100Cluster(4), hw.V100Cluster(8), mixed, spine}
	reused, evals := 0, 0
	for _, cfg := range []model.Config{model.GPT2SMoE(), model.GPT2LMoE(), model.ViTSMoE()} {
		for _, cl := range fleets {
			g, cm, session := sessionFixture(t, cfg, cl)
			zipf, zipfFrac := cappedProfile(t, netsim.ZipfProfile(cl.TotalGPUs(), 1.2))
			hot, hotFrac := cappedProfile(t, netsim.HotExpertProfile(cl.TotalGPUs(), 0.3))
			type named struct {
				name string
				opts Options
			}
			var cases []named
			for _, w := range []struct {
				name string
				prof *netsim.RoutingProfile
				frac float64
			}{{"uniform", nil, 1}, {"zipf1.2", zipf, zipfFrac}, {"hot0.3", hot, hotFrac}} {
				routed := session
				routed.Profile, routed.PayloadFraction = w.prof, w.frac
				for _, gate := range []bool{true, false} {
					o := routed
					o.GatePartialBatch = gate
					cases = append(cases, named{fmt.Sprintf("%s partial-batch gate=%t", w.name, gate), o})
				}
				for _, groups := range []int{1, 3, 12} {
					o := routed
					o.MaxRangeGroups = groups
					cases = append(cases, named{fmt.Sprintf("%s iota=%d", w.name, groups), o})
				}
				for _, rho := range []int{2, 64} {
					o := routed
					o.MaxPartitions = rho
					cases = append(cases, named{fmt.Sprintf("%s rho=%d", w.name, rho), o})
				}
				for _, scale := range []float64{0.5, 2} {
					o := routed
					o.GroupUs *= scale
					cases = append(cases, named{fmt.Sprintf("%s gamma=%gx", w.name, scale), o})
				}
			}
			for _, c := range cases {
				name := fmt.Sprintf("%s on %s %s", cfg.Name, cl.Name, c.name)
				res, err := Run(g, cm, c.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref, cands := refRun(g, cm, c.opts)
				sameResult(t, name, res, ref)
				_, recs, r := dpMatches(g, cm, c.opts)
				sameCandidates(t, name, recs, cands)
				reused, evals = reused+r, evals+len(recs)
			}
		}
	}
	if reused == 0 {
		t.Errorf("no candidate of %d was reused: the comparison never exercised the reuse", evals)
	}
	t.Logf("%d of %d candidates reused", reused, evals)
}

// On GPT2-L 32×A100 under session options most DP candidates repeat an
// earlier block's: at least 75% must be reused (1,351 of 1,575 when this
// was written), so a matcher that stops matching fails a test and not only
// the benchmark.
func TestRunReusesRepeatedBlocks(t *testing.T) {
	g, cm, opts := gpt2LFixture(t)
	_, recs, reused := dpMatches(g, cm, opts)
	if reused*4 < len(recs)*3 {
		t.Errorf("reused %d of %d candidates, want at least 75%%", reused, len(recs))
	}
}
