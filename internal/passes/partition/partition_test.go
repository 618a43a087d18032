package partition

import (
	"math"
	"slices"
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

// solveWindow solves w's axes on a fresh solver, or returns nil when w is
// not partitionable.
func solveWindow(g *ir.Graph, w []*ir.Instr, gatePartial bool) *axisSolver {
	sv := new(axisSolver)
	if !sv.solveAxes(g, w, gatePartial) {
		return nil
	}
	return sv
}

// serialUs is the unpartitioned time of window under uniform routing: the
// plain sum of its operator times (the forward pass is a dependency chain).
func serialUs(cm *cost.Model, window []*ir.Instr) float64 {
	total := 0.0
	for _, in := range window {
		total += cm.PredictInstr(in)
	}
	return total
}

func TestInferAxesCapacityOnly(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, false, false) // [a2a, experts, a2a]
	sv := solveWindow(b.Graph, w, true)
	if sv == nil {
		t.Fatal("a2a+experts window must be partitionable")
	}
	// Everything flowing through should use the capacity axis (preferred
	// when legal — the Tutel-style partition).
	for _, in := range w {
		for _, o := range in.Outs {
			if ax := sv.axisOf(o); ax != AxisCap {
				t.Errorf("%s output axis = %v, want capacity", in.Name, ax)
			}
		}
	}
}

func TestInferAxesGatherForcesIrr(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, false, true) // [a2a, experts, a2a, gather]
	sv := solveWindow(b.Graph, w, true)
	if sv == nil {
		t.Fatal("window through gather must be partitionable")
	}
	gather := w[len(w)-1]
	if gather.Op != ir.OpMoEGather {
		t.Fatalf("expected gather at window end, got %v", gather.Op)
	}
	// Gather input must be Airr, output batch.
	for _, in := range w[:len(w)-1] {
		for _, o := range in.Outs {
			if ax := sv.axisOf(o); ax != AxisIrr {
				t.Errorf("%s output axis = %v, want Airr once gather is included", in.Name, ax)
			}
		}
	}
	if ax := sv.axisOf(gather.Outs[0]); ax != AxisBatch {
		t.Errorf("gather output axis = %v, want batch", ax)
	}
}

func TestInferAxesGateEndpoints(t *testing.T) {
	b, _ := buildFixture(t)
	w := moeWindow(b, true, true) // [gate, a2a, experts, a2a, gather]
	sv := solveWindow(b.Graph, w, true)
	if sv == nil {
		t.Fatal("full MoE window must be partitionable with a partial-batch gate")
	}
	gate := w[0]
	for _, in := range gate.Ins {
		if b.Graph.Tensor(in).Kind == ir.Weight {
			if sv.axisOf(in) != AxisNP {
				t.Error("gate weight must not be partitioned")
			}
			continue
		}
		if ax := sv.axisOf(in); ax != AxisBatch {
			t.Errorf("gate input axis = %v, want batch", ax)
		}
	}
	for _, o := range gate.Outs {
		if ax := sv.axisOf(o); ax != AxisIrr {
			t.Errorf("gate output axis = %v, want Airr", ax)
		}
	}
}

func TestInferAxesBPRRejectsGate(t *testing.T) {
	b, _ := buildFixture(t)
	if sv := solveWindow(b.Graph, moeWindow(b, true, true), false); sv != nil {
		t.Error("batch-prioritized gate must not be partitionable")
	}
	// But the window after the gate remains legal (Fig. 4c).
	if sv := solveWindow(b.Graph, moeWindow(b, false, true), false); sv == nil {
		t.Error("post-gate window must stay partitionable under BPR")
	}
}

func TestMaxParts(t *testing.T) {
	g := ir.NewGraph()
	a := g.NewTensor("a", ir.Shape{4, 100}, ir.F16, ir.Activation)
	b := g.NewTensor("b", ir.Shape{16, 8, 100}, ir.F16, ir.Activation)
	var sv axisSolver
	for _, c := range []struct {
		asg  map[int]Axis
		want int
		why  string
	}{
		{map[int]Axis{a.ID: AxisBatch, b.ID: AxisCap}, 4, "batch dim"},
		{map[int]Axis{a.ID: AxisNP, b.ID: AxisCap}, 8, "capacity dim"},
	} {
		sv.resetAxes(g)
		for t, ax := range c.asg {
			sv.bind(t, ax)
		}
		if got := sv.maxParts(g); got != c.want {
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
	p2, ok := PipelinePredictUs(b.Graph, cm, start, end, 2, true)
	if !ok {
		t.Fatal("window not partitionable")
	}
	serial := serialUs(cm, w)
	if p2 >= serial {
		t.Errorf("k=2 pipeline (%v us) should beat serial (%v us)", p2, serial)
	}
	// Extreme partitioning pays launch overhead: cost grows again.
	p2x, _ := PipelinePredictUs(b.Graph, cm, start, end, 2, true)
	pBig, _ := PipelinePredictUs(b.Graph, cm, start, end, 64, true)
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
	// Every instruction of a range is replaced by exactly K instances: the
	// same op under the same name, one per partition index. Ops that share
	// a name and op count together.
	type source struct {
		name string
		op   ir.OpKind
		k    int
	}
	want := make(map[source]int) // window ops per source
	for _, r := range res.Ranges {
		for _, in := range b.Graph.Instrs[r.Start : r.End+1] {
			want[source{in.Name, in.Op, r.K}]++
		}
	}
	got := make(map[source][]int) // instances per source and partition index
	for _, in := range res.Graph.Instrs {
		if in.NumParts == 0 || in.Op == ir.OpPartitionSplit || in.Op == ir.OpReconstruct {
			continue
		}
		if in.PartIdx < 0 || in.PartIdx >= in.NumParts {
			t.Fatalf("%s: partition %d of %d", in.Name, in.PartIdx, in.NumParts)
		}
		s := source{in.Name, in.Op, in.NumParts}
		if got[s] == nil {
			got[s] = make([]int, s.k)
		}
		got[s][in.PartIdx]++
	}
	for s, n := range want {
		if len(got[s]) != s.k {
			t.Errorf("%s %s: no %d-way instances", s.op, s.name, s.k)
			continue
		}
		for p, c := range got[s] {
			if c != n {
				t.Errorf("%s %s: %d instances of partition %d/%d, want %d", s.op, s.name, c, p, s.k, n)
			}
		}
	}
	for s := range got {
		if want[s] == 0 {
			t.Errorf("%s %s: %d-way instances of no window op", s.op, s.name, s.k)
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
// order, outside the graph, or with no partition axes — with an error
// instead of a panic or a silently skipped range. A core window that
// starts at the gate has axes only when the gate routes partial batches,
// and a window holding the loss never has any.
func TestApplyRejectsBadRanges(t *testing.T) {
	b, _ := buildFixture(t)
	g := b.Graph
	n := len(g.Instrs)
	h := b.MoE[0]
	loss := slices.IndexFunc(g.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpLoss })
	gateCore := []Range{{Start: h.Gate, End: h.CombineA2A, K: 2}}
	cases := []struct {
		name        string
		ranges      []Range
		gatePartial bool
	}{
		{"inverted", []Range{{Start: 5, End: 2, K: 2}}, true},
		{"overlapping", []Range{{Start: 0, End: 5, K: 2}, {Start: 3, End: 8, K: 2}}, true},
		{"overlapping reversed", []Range{{Start: 3, End: 8, K: 2}, {Start: 0, End: 5, K: 2}}, true},
		{"negative start", []Range{{Start: -1, End: 2, K: 2}}, true},
		{"past the end", []Range{{Start: n - 2, End: n, K: 2}}, true},
		{"beyond the graph", []Range{{Start: n + 3, End: n + 4, K: 2}}, true},
		{"gate start without partial batches", gateCore, false},
		{"loss inside", []Range{{Start: loss - 1, End: loss, K: 2}}, true},
	}
	for _, tc := range cases {
		if _, err := Apply(g, tc.ranges, tc.gatePartial); err == nil {
			t.Errorf("%s: Apply accepted %v", tc.name, tc.ranges)
		}
	}
	if _, err := Apply(g, gateCore, true); err != nil {
		t.Errorf("gate start with partial batches: %v", err)
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
	if dim, n, _ := splitLen(s, AxisBatch, 2, 0); dim != 0 || n != 4 {
		t.Errorf("first batch piece dim %d = %d, want dim 0 = 4", dim, n)
	}
	if _, n, _ := splitLen(s, AxisBatch, 2, 1); n != 3 {
		t.Errorf("second batch piece dim = %d, want 3", n)
	}
	if dim, n, _ := splitLen(s, AxisCap, 5, 0); dim != 1 || n != 2 {
		t.Errorf("capacity piece dim %d = %d, want dim 1 = 2", dim, n)
	}
	total := 0
	for p := 0; p < 3; p++ {
		_, n, _ := splitLen(s, AxisIrr, 3, p)
		total += n
	}
	if total != 10 {
		t.Errorf("pieces don't cover the axis: %d != 10", total)
	}
	if _, _, ok := splitLen(s, AxisPartial, 3, 0); ok {
		t.Error("partial-sum pieces keep the full shape")
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
// window indexed and simulated from scratch, nor across every window of one
// start, where the index and the simulations resume, nor over the whole
// sweep of GPT2-L's graph, whose starts mostly match an earlier block and
// replay its recorded candidates.
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

	g, lcm, opts := gpt2LFixture(t)
	opts.fillDefaults()
	lpr := lcm.NewA2APricer(nil)
	_, evals := sc.sweep(g, lcm, lpr, opts)
	if allocs := testing.AllocsPerRun(20, func() {
		_, evals = sc.sweep(g, lcm, lpr, opts)
	}); allocs != 0 {
		t.Errorf("whole DP sweep allocates %v per run, want 0", allocs)
	}
	sink += float64(evals)
	_ = sink
}
