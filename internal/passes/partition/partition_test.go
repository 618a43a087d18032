package partition

import (
	"math"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/race"
	"lancet/internal/sim"
)

func buildFixture(t *testing.T) (*model.Built, *cost.Model) {
	t.Helper()
	cfg := model.GPT2SMoE()
	cfg.BatchPerGPU = 16
	cl := hw.V100Cluster(2)
	b, err := model.Build(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	return b, cost.NewModel(cl)
}

// window slices the forward MoE core instructions of the first MoE layer.
func moeWindow(b *model.Built, withGate, withGather bool) []*ir.Instr {
	start, end := moeRange(b, withGate, withGather)
	return b.Graph.Instrs[start : end+1]
}

// moeRange is moeWindow's first and last program position.
func moeRange(b *model.Built, withGate, withGather bool) (start, end int) {
	h := b.MoE[len(b.MoE)-1] // built in backward order; last entry is layer 1
	start = h.DispatchA2A
	if withGate {
		start = h.Gate
	}
	end = h.CombineA2A
	if withGather {
		end = h.Gather
	}
	return start, end
}

func TestInferAxesCapacityOnly(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, false, false) // [a2a, experts, a2a]
	asg := InferAxes(b.Graph, w, true)
	if asg == nil {
		t.Fatal("a2a+experts window must be partitionable")
	}
	// Everything flowing through should use the capacity axis (preferred
	// when legal — the Tutel-style partition).
	for _, in := range w {
		for _, o := range in.Outs {
			if asg[o] != AxisCap {
				t.Errorf("%s output axis = %v, want capacity", in.Name, asg[o])
			}
		}
	}
}

func TestInferAxesGatherForcesIrr(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, false, true) // [a2a, experts, a2a, gather]
	asg := InferAxes(b.Graph, w, true)
	if asg == nil {
		t.Fatal("window through gather must be partitionable")
	}
	gather := w[len(w)-1]
	if gather.Op != ir.OpMoEGather {
		t.Fatalf("expected gather at window end, got %v", gather.Op)
	}
	// Gather input must be Airr, output batch.
	for _, in := range w[:len(w)-1] {
		for _, o := range in.Outs {
			if asg[o] != AxisIrr {
				t.Errorf("%s output axis = %v, want Airr once gather is included", in.Name, asg[o])
			}
		}
	}
	if asg[gather.Outs[0]] != AxisBatch {
		t.Errorf("gather output axis = %v, want batch", asg[gather.Outs[0]])
	}
}

func TestInferAxesGateEndpoints(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, true, true) // [gate, a2a, experts, a2a, gather]
	asg := InferAxes(b.Graph, w, true)
	if asg == nil {
		t.Fatal("full MoE window must be partitionable with a partial-batch gate")
	}
	gate := w[0]
	for _, in := range gate.Ins {
		if b.Graph.Tensor(in).Kind == ir.Weight {
			if asg[in] != AxisNP {
				t.Error("gate weight must not be partitioned")
			}
			continue
		}
		if asg[in] != AxisBatch {
			t.Errorf("gate input axis = %v, want batch", asg[in])
		}
	}
	for _, o := range gate.Outs {
		if asg[o] != AxisIrr {
			t.Errorf("gate output axis = %v, want Airr", asg[o])
		}
	}
}

func TestInferAxesBPRRejectsGate(t *testing.T) {
	b, _ := buildFixture(t)
	if asg := InferAxes(b.Graph, moeWindow(b, true, true), false); asg != nil {
		t.Error("batch-prioritized gate must not be partitionable")
	}
	// But the window after the gate remains legal (Fig. 4c).
	if asg := InferAxes(b.Graph, moeWindow(b, false, true), false); asg == nil {
		t.Error("post-gate window must stay partitionable under BPR")
	}
}

func TestMaxParts(t *testing.T) {
	g := ir.NewGraph()
	a := g.NewTensor("a", ir.Shape{4, 100}, ir.F16, ir.Activation)
	b := g.NewTensor("b", ir.Shape{16, 8, 100}, ir.F16, ir.Activation)
	sc := getScratch()
	defer putScratch(sc)
	for _, c := range []struct {
		asg  Assignment
		want int
		why  string
	}{
		{Assignment{a.ID: AxisBatch, b.ID: AxisCap}, 4, "batch dim"},
		{Assignment{a.ID: AxisNP, b.ID: AxisCap}, 8, "capacity dim"},
	} {
		sc.loadAxes(g, c.asg)
		if got := sc.maxParts(g); got != c.want {
			t.Errorf("maxParts = %d, want %d (%s)", got, c.want, c.why)
		}
		if got := refMaxParts(g, c.asg); got != c.want {
			t.Errorf("reference maxParts = %d, want %d (%s)", got, c.want, c.why)
		}
	}
}

func TestStageDecomposition(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, true, true)
	st := stageOf(w)
	// gate | a2a | experts | a2a | gather -> stages 0,1,2,3,4.
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("stages = %v, want %v", st, want)
		}
	}
}

func TestSchedulePlanOrder(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, true, true)
	plan := schedulePlan(w, 2)
	if len(plan) != len(w)*2 {
		t.Fatalf("plan has %d entries, want %d", len(plan), len(w)*2)
	}
	// Fig. 9: stage-major, then partition index.
	want := []instanceRef{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}, {4, 0}, {4, 1}}
	for i := range want {
		if plan[i] != want[i] {
			t.Fatalf("plan = %v, want %v", plan, want)
		}
	}
}

// The pipeline must beat serial execution for the MoE window at moderate k,
// and over-partitioning must eventually hurt (the U-shape of Fig. 6).
func TestPipelineCostShape(t *testing.T) {
	b, cm := buildFixture(t)
	w := moeWindow(b, true, true)
	start, end := moeRange(b, true, true)
	asg := InferAxes(b.Graph, w, true)
	if asg == nil {
		t.Fatal("window not partitionable")
	}
	serial := serialCost(cm, w, nil, 1)
	p2 := pipelineCost(b.Graph, cm, start, end, asg, 2, nil, 1)
	if p2 >= serial {
		t.Errorf("k=2 pipeline (%v us) should beat serial (%v us)", p2, serial)
	}
	// Extreme partitioning pays launch overhead: cost grows again.
	p2x := pipelineCost(b.Graph, cm, start, end, asg, 2, nil, 1)
	pBig := pipelineCost(b.Graph, cm, start, end, asg, 64, nil, 1)
	if pBig <= p2x {
		t.Errorf("k=64 (%v us) should cost more than k=2 (%v us)", pBig, p2x)
	}
}

func TestRunProducesValidFasterGraph(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranges) == 0 {
		t.Fatal("expected at least one chosen pipeline")
	}
	if res.ForwardUs >= res.SerialForwardUs {
		t.Errorf("DP found no forward improvement: %v >= %v", res.ForwardUs, res.SerialForwardUs)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("rewritten graph invalid: %v", err)
	}
	// End-to-end simulated speedup.
	ex := &sim.Executor{Cost: cm}
	base, err := ex.Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ex.Run(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalUs >= base.TotalUs {
		t.Errorf("partitioning did not speed up iteration: %v -> %v us", base.TotalUs, opt.TotalUs)
	}
}

// TestRunWithoutFiniteCandidatesIgnoresPooledScratch pins the DP's answer
// when no candidate has a finite cost, as on a spine whose 1e308
// oversubscription overflows every cross-rack all-to-all price. No
// candidate then improves on T[j] = +Inf, so best[j] is never written,
// and the backtrack used to follow whatever choices an earlier run left in
// the pooled scratch: a stale plan, or a rewrite failure. The answer must
// be the same after any history: no pipelines and an infinite forward
// time.
func TestRunWithoutFiniteCandidatesIgnoresPooledScratch(t *testing.T) {
	b, cm := buildFixture(t)
	cl, err := hw.V100Cluster(2).WithTopology(hw.Topology{NodesPerRack: 1, Oversubscription: 1e308})
	if err != nil {
		t.Fatal(err)
	}
	overflow := cost.NewModel(cl)
	for i := range 4 {
		// A finite run leaves its chosen pipelines in the pooled scratch.
		if _, err := Run(b.Graph, cm, Options{GatePartialBatch: true}); err != nil {
			t.Fatal(err)
		}
		res, err := Run(b.Graph, overflow, Options{GatePartialBatch: true})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(res.Ranges) != 0 || !math.IsInf(res.ForwardUs, 1) {
			t.Fatalf("run %d: %d pipelines, forward %v us; want none and +Inf", i, len(res.Ranges), res.ForwardUs)
		}
	}
}

func TestRunRespectsMaxPartitions(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{MaxPartitions: 2, GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranges {
		if r.K > 2 {
			t.Errorf("range uses k=%d, exceeding rho=2", r.K)
		}
	}
	for _, in := range res.Graph.Instrs {
		if in.NumParts > 2 {
			t.Errorf("instance %s has NumParts=%d", in.Name, in.NumParts)
		}
	}
}

func TestRunBPRNeverPartitionsGate(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{GatePartialBatch: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Graph.Instrs {
		if in.Op == ir.OpGate && in.NumParts > 1 {
			t.Errorf("gate %s partitioned under batch-prioritized routing", in.Name)
		}
	}
	// Pipelines should still exist (extension after the MoE layer).
	if len(res.Ranges) == 0 {
		t.Error("BPR should still allow post-MoE pipelines")
	}
}

func TestRewriteAccounting(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every original instruction is either present verbatim or replaced by
	// exactly K instances.
	counts := make(map[int]int) // SrcID -> instance count
	for _, in := range res.Graph.Instrs {
		if in.SrcID >= 0 {
			counts[in.SrcID]++
		}
	}
	for _, r := range res.Ranges {
		for id := r.Start; id <= r.End; id++ {
			if counts[id] != r.K {
				t.Errorf("@%d: %d instances, want %d", id, counts[id], r.K)
			}
		}
	}
	// All-to-all payloads of instances must sum back to the original.
	var origA2A, newA2A int64
	for _, in := range b.Graph.Instrs {
		if in.Op == ir.OpAllToAll {
			origA2A += in.Bytes
		}
	}
	for _, in := range res.Graph.Instrs {
		if in.Op == ir.OpAllToAll {
			newA2A += in.Bytes
		}
	}
	if d := origA2A - newA2A; d < 0 || float64(d) > 0.01*float64(origA2A) {
		t.Errorf("a2a bytes drifted: %d -> %d", origA2A, newA2A)
	}
}

// Apply rejects ranges it cannot rewrite — inverted, overlapping in either
// order, or outside the graph — with an error instead of a panic or a
// silently skipped range.
func TestApplyRejectsBadRanges(t *testing.T) {
	b, _ := buildFixture(t)
	n := len(b.Graph.Instrs)
	cases := []struct {
		name   string
		ranges []Range
	}{
		{"inverted", []Range{{Start: 5, End: 2, K: 2}}},
		{"overlapping", []Range{{Start: 0, End: 5, K: 2}, {Start: 3, End: 8, K: 2}}},
		{"overlapping reversed", []Range{{Start: 3, End: 8, K: 2}, {Start: 0, End: 5, K: 2}}},
		{"negative start", []Range{{Start: -1, End: 2, K: 2}}},
		{"past the end", []Range{{Start: n - 2, End: n, K: 2}}},
		{"beyond the graph", []Range{{Start: n + 3, End: n + 4, K: 2}}},
	}
	for _, tc := range cases {
		if _, err := Apply(b.Graph, tc.ranges); err == nil {
			t.Errorf("%s: Apply accepted %v", tc.name, tc.ranges)
		}
	}
}

func TestGroupsCoverForwardExactly(t *testing.T) {
	b, cm := buildFixture(t)
	fwdEnd := 0
	for _, in := range b.Graph.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwdEnd++
	}
	prefix := make([]float64, fwdEnd+1)
	for i := 0; i < fwdEnd; i++ {
		prefix[i+1] = prefix[i] + cm.PredictInstr(b.Graph.Instr(i))
	}
	bounds := makeGroups(prefix, 2000, nil)
	if bounds[0] != 0 || bounds[len(bounds)-1] != fwdEnd {
		t.Fatalf("bounds %v do not span [0,%d]", bounds, fwdEnd)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
	}
}

func TestScaledShape(t *testing.T) {
	s := ir.Shape{7, 10, 3}
	if got := scaledShape(s, AxisBatch, 2, 0); got[0] != 4 {
		t.Errorf("first batch piece dim = %d, want 4", got[0])
	}
	if got := scaledShape(s, AxisBatch, 2, 1); got[0] != 3 {
		t.Errorf("second batch piece dim = %d, want 3", got[0])
	}
	if got := scaledShape(s, AxisCap, 5, 0); got[1] != 2 {
		t.Errorf("capacity piece dim = %d, want 2", got[1])
	}
	total := 0
	for p := 0; p < 3; p++ {
		total += scaledShape(s, AxisIrr, 3, p)[1]
	}
	if total != 10 {
		t.Errorf("pieces don't cover the axis: %d != 10", total)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fillDefaults()
	if o.MaxPartitions != 8 || o.GroupUs != 2000 || o.MaxRangeGroups != 12 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	keep := Options{MaxPartitions: 4, GroupUs: 500, MaxRangeGroups: 3}
	keep.fillDefaults()
	if keep.MaxPartitions != 4 || keep.GroupUs != 500 || keep.MaxRangeGroups != 3 {
		t.Errorf("explicit options overwritten: %+v", keep)
	}
}

// The DP inner loop — axis inference, window index, boundary cost,
// pipeline-span sweep — must not allocate once the scratch arenas and
// instruction-profile caches are warm (DESIGN.md §13), neither on one
// window indexed and simulated from scratch nor across every window of one
// start, where the index and the simulations resume.
func TestDPInnerLoopZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	b, cm := buildFixture(t)
	h := b.MoE[0]
	w := b.Graph.Instrs[h.Gate : h.Gather+1]
	pr := cm.NewA2APricer(nil)
	sc := getScratch()
	defer putScratch(sc)
	sc.beginSweep(len(b.Graph.Instrs))
	sink := windowSweep(b.Graph, cm, h.Gate, w, pr, sc)
	if allocs := testing.AllocsPerRun(100, func() {
		sink += windowSweep(b.Graph, cm, h.Gate, w, pr, sc)
	}); allocs != 0 {
		t.Errorf("DP inner loop allocates %v per run, want 0", allocs)
	}

	// The start is the group holding the last MoE layer's gate.
	bounds := dpBounds(b.Graph, cm)
	i := 0
	for i+1 < len(bounds) && bounds[i+1] <= h.Gate {
		i++
	}
	p, priced := startSweep(b.Graph, cm, bounds, i, pr, sc)
	if priced < 2 {
		t.Fatalf("start %d priced %d windows; the resume leg needs several", i, priced)
	}
	sink += p
	if allocs := testing.AllocsPerRun(100, func() {
		p, _ := startSweep(b.Graph, cm, bounds, i, pr, sc)
		sink += p
	}); allocs != 0 {
		t.Errorf("DP loop over one start allocates %v per run, want 0", allocs)
	}
	_ = sink
}
