package baselines

import (
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/sim"
)

func fixture(t *testing.T) (*model.Built, *cost.Model) {
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

func TestTutelPlanDegreeOne(t *testing.T) {
	b, _ := fixture(t)
	g, err := TutelPlan(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g != b.Graph {
		t.Error("degree 1 should return the original graph")
	}
	if _, err := TutelPlan(b, 0); err == nil {
		t.Error("degree 0 must be rejected")
	}
}

func TestTutelPlanPartitionsBothDirections(t *testing.T) {
	b, _ := fixture(t)
	g, err := TutelPlan(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var fwd, bwd int
	for _, in := range g.Instrs {
		if in.Op == ir.OpAllToAll && in.NumParts == 4 {
			if in.Phase == ir.Forward {
				fwd++
			} else {
				bwd++
			}
		}
	}
	nMoE := b.Config.NumMoELayers()
	if fwd != 2*nMoE*4 || bwd != 2*nMoE*4 {
		t.Errorf("partitioned a2a instances fwd=%d bwd=%d, want %d each", fwd, bwd, 2*nMoE*4)
	}
	// Tutel partitions on the capacity axis only — never the irregular one.
	// A capacity split or reconstruct is a free view of the dispatch
	// buffer and carries no bytes; an irregular one regroups tokens and
	// moves twice the tensor.
	splits, reconstructs := 0, 0
	for _, in := range g.Instrs {
		switch in.Op {
		case ir.OpPartitionSplit:
			splits++
		case ir.OpReconstruct:
			reconstructs++
		default:
			continue
		}
		if in.Bytes != 0 {
			t.Errorf("%s moves %d bytes: an irregular boundary, want a capacity view", in.Name, in.Bytes)
		}
	}
	if splits == 0 || reconstructs == 0 {
		t.Errorf("%d split and %d reconstruct ops, want some of each", splits, reconstructs)
	}
}

func TestTutelPlanSpeedsUpMoECore(t *testing.T) {
	b, cm := fixture(t)
	ex := &sim.Executor{Cost: cm}
	base, err := ex.Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g, err := TutelPlan(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	tut, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if tut.TotalUs >= base.TotalUs {
		t.Errorf("Tutel overlap did not help: %v -> %v us", base.TotalUs, tut.TotalUs)
	}
}

func TestBestTutelPlanPicksFastest(t *testing.T) {
	b, cm := fixture(t)
	ex := &sim.Executor{Cost: cm, Predict: true}
	predict := func(g *ir.Graph) (float64, error) {
		tl, err := ex.Run(g)
		if err != nil {
			return 0, err
		}
		return tl.TotalUs, nil
	}
	g, d, us, err := BestTutelPlan(b, predict)
	if err != nil {
		t.Fatal(err)
	}
	if d < 1 || g == nil {
		t.Fatalf("no plan selected")
	}
	tBest, err := predict(g)
	if err != nil {
		t.Fatal(err)
	}
	if us != tBest {
		t.Errorf("BestTutelPlan reports %v us for the selected degree %d, its prediction is %v us", us, d, tBest)
	}
	for _, dd := range TutelDegrees {
		gg, err := TutelPlan(b, dd)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := predict(gg)
		if err != nil {
			t.Fatal(err)
		}
		if tt < tBest-1e-6 {
			t.Errorf("degree %d (%v us) beats selected degree %d (%v us)", dd, tt, d, tBest)
		}
	}
}

func TestTutelDegreeClampedToCapacity(t *testing.T) {
	cfg := model.GPT2SMoE()
	cfg.BatchPerGPU = 1
	cfg.SeqLen = 64 // tiny: capacity shrinks below 8
	cl := hw.V100Cluster(2)
	b, err := model.Build(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if b.CapacityC >= 8 {
		t.Skip("capacity not small enough to exercise clamping")
	}
	g, err := TutelPlan(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range g.Instrs {
		if in.NumParts > b.CapacityC {
			t.Errorf("instance %s has %d parts, capacity is %d", in.Name, in.NumParts, b.CapacityC)
		}
	}
}

func TestFasterMoEPlanNoSkewEqualsTutel2(t *testing.T) {
	b, _ := fixture(t)
	// Below the shadowing threshold, the plan is the pairwise overlap only.
	g, err := FasterMoEPlan(b, 1.0/float64(b.TotalExperts))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	tut, err := TutelPlan(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	var gBytes, tBytes int64
	for _, in := range g.Instrs {
		if in.Op == ir.OpAllToAll {
			gBytes += in.Bytes
		}
	}
	for _, in := range tut.Instrs {
		if in.Op == ir.OpAllToAll {
			tBytes += in.Bytes
		}
	}
	if gBytes != tBytes {
		t.Errorf("no-shadow FasterMoE a2a bytes %d != Tutel-2 %d", gBytes, tBytes)
	}
}

func TestFasterMoEPlanShadowingShrinksA2A(t *testing.T) {
	b, _ := fixture(t)
	base, err := FasterMoEPlan(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	shadowed, err := FasterMoEPlan(b, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(g *ir.Graph, op ir.OpKind) int64 {
		var total int64
		for _, in := range g.Instrs {
			if in.Op == op {
				total += in.Bytes
			}
		}
		return total
	}
	if got, want := sum(shadowed, ir.OpAllToAll), int64(float64(sum(base, ir.OpAllToAll))*0.6); got != want {
		t.Errorf("shadowed a2a bytes = %d, want %d (60%%)", got, want)
	}
	if sum(shadowed, ir.OpAllReduce) <= sum(base, ir.OpAllReduce) {
		t.Error("shadowing must add gradient sync for the replicated expert")
	}
	// The original graph must be untouched.
	if sum(b.Graph, ir.OpAllToAll) != sum(base, ir.OpAllToAll) {
		t.Error("FasterMoEPlan mutated the session graph")
	}
}
