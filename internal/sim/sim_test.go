package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
)

// fixture builds a graph with one all-to-all and compute ops around it:
//
//	c0 = matmul(x)          (compute)
//	a  = all_to_all(c0)     (comm)
//	c1 = matmul(y)          (independent compute, can overlap a)
//	c2 = matmul(a, c1)      (depends on both)
func fixture() (*ir.Graph, *cost.Model) {
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	y := g.NewTensor("y", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	t0 := g.NewTensor("t0", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	t1 := g.NewTensor("t1", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	t2 := g.NewTensor("t2", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	t3 := g.NewTensor("t3", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Name: "c0", Op: ir.OpMatMul, FLOPs: 5e9, Ins: []int{x.ID}, Outs: []int{t0.ID}})
	g.Emit(&ir.Instr{Name: "a2a", Op: ir.OpAllToAll, Bytes: 32 << 20, CommDevices: 16, Ins: []int{t0.ID}, Outs: []int{t1.ID}})
	g.Emit(&ir.Instr{Name: "c1", Op: ir.OpMatMul, FLOPs: 5e9, Ins: []int{y.ID}, Outs: []int{t2.ID}})
	g.Emit(&ir.Instr{Name: "c2", Op: ir.OpMatMul, FLOPs: 5e9, Ins: []int{t1.ID, t2.ID}, Outs: []int{t3.ID}})
	return g, cost.NewModel(hw.V100Cluster(2))
}

func TestRunBasicOrdering(t *testing.T) {
	g, m := fixture()
	ex := &Executor{Cost: m}
	tl, err := ex.RunTraced(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Spans) != 4 {
		t.Fatalf("got %d spans", len(tl.Spans))
	}
	byID := map[int]Span{}
	for _, s := range tl.Spans {
		byID[s.Instr] = s
	}
	// a2a starts after c0 ends (dependency).
	if byID[1].StartUs < byID[0].EndUs {
		t.Error("a2a started before its producer finished")
	}
	// c1 is independent: it starts when the compute stream frees (end of c0),
	// overlapping the a2a.
	if byID[2].StartUs != byID[0].EndUs {
		t.Errorf("c1 start %v, want %v (right after c0)", byID[2].StartUs, byID[0].EndUs)
	}
	if byID[2].StartUs >= byID[1].EndUs {
		t.Error("c1 should overlap the a2a")
	}
	// c2 waits for both the a2a and c1.
	wantStart := math.Max(byID[1].EndUs, byID[2].EndUs)
	if byID[3].StartUs != wantStart {
		t.Errorf("c2 start %v, want %v", byID[3].StartUs, wantStart)
	}
	if tl.TotalUs != byID[3].EndUs {
		t.Errorf("TotalUs %v, want end of last span %v", tl.TotalUs, byID[3].EndUs)
	}
}

func TestOverlapAccounting(t *testing.T) {
	g, m := fixture()
	ex := &Executor{Cost: m}
	tl, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	b := tl.Breakdown
	if b.OverlapUs <= 0 {
		t.Error("expected some comm/compute overlap")
	}
	if got := b.NonOverlappedCommUs + b.OverlapUs; !close2(got, b.CommBusyUs) {
		t.Errorf("comm accounting: %v + %v != %v", b.NonOverlappedCommUs, b.OverlapUs, b.CommBusyUs)
	}
	if got := b.NonOverlappedComputeUs + b.OverlapUs; !close2(got, b.ComputeBusyUs) {
		t.Errorf("compute accounting mismatch: %v != %v", got, b.ComputeBusyUs)
	}
	// Wall clock = busy time minus double-counted overlap (no idle in this
	// dense schedule until the final join).
	if tl.TotalUs > b.CommBusyUs+b.ComputeBusyUs {
		t.Error("wall clock exceeds total busy time — streams can't both idle here")
	}
}

func TestNoOverlapWhenSerial(t *testing.T) {
	// chain: c0 -> a2a -> c2 with no independent work.
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{4}, ir.F16, ir.Activation)
	t0 := g.NewTensor("t0", ir.Shape{4}, ir.F16, ir.Activation)
	t1 := g.NewTensor("t1", ir.Shape{4}, ir.F16, ir.Activation)
	t2 := g.NewTensor("t2", ir.Shape{4}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Op: ir.OpMatMul, FLOPs: 1e9, Ins: []int{x.ID}, Outs: []int{t0.ID}})
	g.Emit(&ir.Instr{Op: ir.OpAllToAll, Bytes: 16 << 20, CommDevices: 16, Ins: []int{t0.ID}, Outs: []int{t1.ID}})
	g.Emit(&ir.Instr{Op: ir.OpMatMul, FLOPs: 1e9, Ins: []int{t1.ID}, Outs: []int{t2.ID}})
	m := cost.NewModel(hw.V100Cluster(2))
	tl, err := (&Executor{Cost: m}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Breakdown.OverlapUs != 0 {
		t.Errorf("serial chain should have zero overlap, got %v", tl.Breakdown.OverlapUs)
	}
	if !close2(tl.TotalUs, tl.CommBusyUs+tl.ComputeBusyUs) {
		t.Errorf("serial chain wall clock %v != busy sum %v", tl.TotalUs, tl.CommBusyUs+tl.ComputeBusyUs)
	}
}

func TestSystematicJitterSharedAcrossPlans(t *testing.T) {
	// The run-wide factor depends only on the seed: two different graphs
	// simulated with the same seed get the same systematic scale, so
	// same-seed framework comparisons stay fair.
	g, m := fixture()
	base, err := (&Executor{Cost: m, SystematicPct: 0.05, Seed: 9}).RunTraced(g)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := (&Executor{Cost: m}).RunTraced(g)
	if err != nil {
		t.Fatal(err)
	}
	scale := base.TotalUs / clean.TotalUs
	if scale == 1 {
		t.Error("systematic jitter had no effect")
	}
	if scale < 0.95 || scale > 1.05 {
		t.Errorf("systematic scale %v outside +-5%%", scale)
	}
	// Every span scales identically.
	for i := range base.Spans {
		d1 := base.Spans[i].EndUs - base.Spans[i].StartUs
		d0 := clean.Spans[i].EndUs - clean.Spans[i].StartUs
		if d0 > 0 && math.Abs(d1/d0-scale) > 1e-9 {
			t.Fatalf("span %d scaled by %v, want %v", i, d1/d0, scale)
		}
	}
	// Predict mode ignores it.
	pred, err := (&Executor{Cost: m, SystematicPct: 0.05, Seed: 9, Predict: true}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	pred2, err := (&Executor{Cost: m, Predict: true}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TotalUs != pred2.TotalUs {
		t.Error("prediction must not be affected by systematic jitter")
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	g, m := fixture()
	run := func(seed int64) float64 {
		tl, err := (&Executor{Cost: m, JitterPct: 0.05, Seed: seed}).Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return tl.TotalUs
	}
	if run(1) != run(1) {
		t.Error("same seed must reproduce identical timelines")
	}
	if run(1) == run(2) {
		t.Error("different seeds should differ")
	}
}

// Run and RunTraced simulate the same iteration; only RunTraced hands out
// spans, and those are the caller's: a later run does not write them.
func TestRunTracedMatchesRun(t *testing.T) {
	g, m := fixture()
	ex := &Executor{Cost: m, JitterPct: 0.05, SystematicPct: 0.04, Seed: 3}
	plain, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ex.RunTraced(g)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Spans != nil {
		t.Errorf("Run returned %d spans, want none", len(plain.Spans))
	}
	if len(traced.Spans) != len(g.Instrs) {
		t.Fatalf("RunTraced returned %d spans, want %d", len(traced.Spans), len(g.Instrs))
	}
	if traced.TotalUs != plain.TotalUs || traced.Breakdown.OverlapUs != plain.Breakdown.OverlapUs {
		t.Errorf("RunTraced %v us (overlap %v), Run %v us (overlap %v)",
			traced.TotalUs, traced.OverlapUs, plain.TotalUs, plain.OverlapUs)
	}
	kept := slices.Clone(traced.Spans)
	if _, err := (&Executor{Cost: m, JitterPct: 0.05, Seed: 4}).Run(g); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(traced.Spans, kept) {
		t.Error("a later run rewrote the spans RunTraced returned")
	}
}

// The pooled source, reseeded per run, must draw the streams a fresh
// source per seed draws: the run-wide factor from seed^0x5eed and the
// per-op jitter, in program order, from seed.
func TestJitterStreamsMatchFreshSources(t *testing.T) {
	g, m := fixture()
	const jit, sys, seed = 0.05, 0.04, 11
	clean, err := (&Executor{Cost: m}).RunTraced(g)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second run reuses a reseeded pooled source
		got, err := (&Executor{Cost: m, JitterPct: jit, SystematicPct: sys, Seed: seed}).RunTraced(g)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + (rand.New(rand.NewSource(seed^0x5eed)).Float64()*2-1)*sys
		perOp := rand.New(rand.NewSource(seed))
		for i, s := range got.Spans {
			want := (clean.Spans[i].EndUs - clean.Spans[i].StartUs) * (1 + (perOp.Float64()*2-1)*jit) * scale
			if d := s.EndUs - s.StartUs; math.Abs(d-want) > 1e-9*want {
				t.Fatalf("span %d lasts %v us, want %v", i, d, want)
			}
		}
	}
}

func TestPredictModeMatchesActualClosely(t *testing.T) {
	g, m := fixture()
	actual, err := (&Executor{Cost: m}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := (&Executor{Cost: m, Predict: true}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(pred.TotalUs-actual.TotalUs) / actual.TotalUs
	if rel > 0.05 {
		t.Errorf("prediction off by %.1f%%", rel*100)
	}
	if pred.TotalUs == actual.TotalUs {
		t.Error("prediction should not be bit-identical to ground truth (profile noise)")
	}
}

func TestA2ABytesOverride(t *testing.T) {
	g, m := fixture()
	base, err := (&Executor{Cost: m}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Irregular payload at 25% of padded size: the a2a should shrink.
	over, err := (&Executor{Cost: m, A2ABytesOverride: map[int]int64{1: 8 << 20}}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if over.AllToAllUs >= base.AllToAllUs {
		t.Errorf("override with smaller payload should shrink a2a: %v >= %v", over.AllToAllUs, base.AllToAllUs)
	}
}

func TestRunRejectsBadSchedule(t *testing.T) {
	// The program order reads t0 before the instruction producing it.
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	t0 := g.NewTensor("t0", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	t1 := g.NewTensor("t1", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Name: "a2a", Op: ir.OpAllToAll, Bytes: 32 << 20, CommDevices: 16, Ins: []int{t0.ID}, Outs: []int{t1.ID}})
	g.Emit(&ir.Instr{Name: "c0", Op: ir.OpMatMul, FLOPs: 5e9, Ins: []int{x.ID}, Outs: []int{t0.ID}})
	if _, err := (&Executor{Cost: cost.NewModel(hw.V100Cluster(2))}).Run(g); err == nil {
		t.Error("dependency-violating program order must be rejected")
	}
}

// An instruction reading its own output has no valid start time: Run used
// to read its end time from pooled scratch before writing it, so the
// simulated iteration depended on whichever run used the scratch last.
func TestRunRejectsSelfConsumingInstruction(t *testing.T) {
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	y := g.NewTensor("y", ir.Shape{1 << 20}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Name: "c0", Op: ir.OpMatMul, FLOPs: 5e9, Ins: []int{x.ID}, Outs: []int{}})
	g.Emit(&ir.Instr{Name: "c1", Op: ir.OpMatMul, FLOPs: 5e9, Ins: []int{x.ID, y.ID}, Outs: []int{y.ID}})
	m := cost.NewModel(hw.V100Cluster(2))
	// Leave large end times in the pooled scratch, as a previous plan would.
	big, _ := fixture()
	for range 3 {
		if _, err := (&Executor{Cost: m, JitterPct: 0.05, Seed: 7}).Run(big); err != nil {
			t.Fatal(err)
		}
	}
	if tl, err := (&Executor{Cost: m}).Run(g); err == nil {
		t.Errorf("self-consuming instruction simulated to %v us, want an error", tl.TotalUs)
	}
}

func TestBreakdownCategories(t *testing.T) {
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{4}, ir.F16, ir.Activation)
	t0 := g.NewTensor("t0", ir.Shape{4}, ir.F16, ir.Activation)
	t1 := g.NewTensor("t1", ir.Shape{4}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Op: ir.OpExpertFFN, FLOPs: 1e9, Ins: []int{x.ID}, Outs: []int{t0.ID}})
	g.Emit(&ir.Instr{Op: ir.OpAllToAll, Bytes: 1 << 20, CommDevices: 16, Ins: []int{t0.ID}, Outs: []int{t1.ID}})
	m := cost.NewModel(hw.V100Cluster(2))
	tl, err := (&Executor{Cost: m}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if tl.ExpertUs <= 0 || tl.AllToAllUs <= 0 {
		t.Errorf("categories not populated: %+v", tl.Breakdown)
	}
	if !close2(tl.ExpertUs+tl.AllToAllUs+tl.OtherUs, tl.CommBusyUs+tl.ComputeBusyUs) {
		t.Error("category totals must sum to busy time")
	}
}

func TestIntervalHelpers(t *testing.T) {
	merged := merge(nil, []interval{{5, 7}, {1, 3}, {2, 4}})
	if len(merged) != 2 || merged[0].lo != 1 || merged[0].hi != 4 {
		t.Errorf("merge = %v", merged)
	}
	x := intersectionMeasure([]interval{{0, 10}}, []interval{{5, 15}, {20, 30}})
	if !close2(x, 5) {
		t.Errorf("intersection = %v, want 5", x)
	}
	if intersectionMeasure(nil, []interval{{0, 1}}) != 0 {
		t.Error("empty intersection should be 0")
	}
}

func close2(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestA2ATierBreakdown(t *testing.T) {
	// On the flat 2-node cluster the exchange is NIC-bound; behind an 8:1
	// oversubscribed spine the same exchange is spine-bound. The breakdown
	// must attribute the a2a busy time to the right bucket, and the buckets
	// must sum to the a2a total.
	g, flatModel := fixture()
	over, err := hw.V100Cluster(2).WithTopology(hw.Topology{NodesPerRack: 1, Oversubscription: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *cost.Model
		want hw.Tier
	}{
		{"flat", flatModel, hw.TierNIC},
		{"oversubscribed", cost.NewModel(over), hw.TierSpine},
	} {
		ex := &Executor{Cost: tc.m}
		tl, err := ex.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if tl.A2ATierUs[tc.want] <= 0 {
			t.Errorf("%s: tier %v bucket empty, breakdown %v", tc.name, tc.want, tl.A2ATierUs)
		}
		sum := 0.0
		for _, v := range tl.A2ATierUs {
			sum += v
		}
		if math.Abs(sum-tl.AllToAllUs) > 1e-9*tl.AllToAllUs {
			t.Errorf("%s: tier buckets sum to %v, AllToAllUs %v", tc.name, sum, tl.AllToAllUs)
		}
		if sum != tl.A2ATierUs[tc.want] {
			t.Errorf("%s: time leaked outside the %v bucket: %v", tc.name, tc.want, tl.A2ATierUs)
		}
	}
}

// heteroFixture prices the fixture graph on a mixed A100+V100 fleet.
func heteroFixture(t *testing.T) (*ir.Graph, *cost.Model) {
	t.Helper()
	g, _ := fixture()
	a, err := hw.ClassForGPU("A100", 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := hw.ClassForGPU("V100", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := hw.ClusterFromClasses([]hw.NodeClass{a, v})
	if err != nil {
		t.Fatal(err)
	}
	return g, cost.NewModel(c)
}

// On a mixed fleet the timeline attributes the compute time spent waiting
// on the slow class to that class (DESIGN.md §12); uniform fleets report
// none.
func TestStragglerClassBreakdown(t *testing.T) {
	g, m := heteroFixture(t)
	ex := &Executor{Cost: m}
	tl, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	lag := tl.StragglerClassUs["V100"]
	if lag <= 0 {
		t.Fatalf("StragglerClassUs = %v, want positive V100 lag", tl.StragglerClassUs)
	}
	if len(tl.StragglerClassUs) != 1 {
		t.Errorf("only the slowest class carries the penalty, got %v", tl.StragglerClassUs)
	}
	// The penalty is bounded by the compute busy time it decomposes.
	if lag >= tl.ComputeBusyUs {
		t.Errorf("straggler lag %.1f us exceeds compute busy %.1f us", lag, tl.ComputeBusyUs)
	}

	// The same graph on the uniform fixture cluster reports no straggler.
	gu, mu := fixture()
	tlu, err := (&Executor{Cost: mu}).Run(gu)
	if err != nil {
		t.Fatal(err)
	}
	if tlu.StragglerClassUs != nil {
		t.Errorf("uniform cluster should report no straggler, got %v", tlu.StragglerClassUs)
	}
}
