package dwsched

import (
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
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

func TestRunProducesValidGraph(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("rewritten graph invalid: %v", err)
	}
	if len(res.Graph.Instrs) != len(b.Graph.Instrs) {
		t.Error("pass must not add or drop instructions")
	}
}

func TestAssignmentsAreLegal(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) == 0 {
		t.Fatal("expected some dW assignments")
	}
	for w, a := range res.Assignments {
		if !b.Graph.Instr(w).IsDW() {
			t.Errorf("assigned instr @%d is not a dW op", w)
		}
		if b.Graph.Instr(a).Op != ir.OpAllToAll {
			t.Errorf("assignment target @%d is not an all-to-all", a)
		}
		if !b.Graph.Independent(w, a) {
			t.Errorf("@%d assigned to dependent all-to-all @%d", w, a)
		}
	}
}

func TestEachDWAssignedAtMostOnce(t *testing.T) {
	// Constraint (1) of the integer program: x_ij sums to <= 1 per dW.
	// Assignments is a map keyed by dW, so multiplicity cannot occur; check
	// instead that only dW ops appear and that no dW was assigned to a
	// forward all-to-all (all are dependency-blocked).
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwdA2A := make(map[int]bool)
	for _, id := range b.Graph.AllToAlls() {
		if b.Graph.Instr(id).Phase == ir.Forward {
			fwdA2A[id] = true
		}
	}
	for w, a := range res.Assignments {
		if fwdA2A[a] {
			t.Errorf("dW @%d assigned to forward a2a @%d — every dW depends on the forward pass", w, a)
		}
	}
}

func TestMovedDWFollowsItsAllToAll(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The rewrite shares the input's instructions, so they are located in
	// the new graph by pointer.
	pos := make(map[*ir.Instr]int)
	for i, in := range res.Graph.Instrs {
		pos[in] = i
	}
	for w, a := range res.Assignments {
		wPos, ok1 := pos[b.Graph.Instr(w)]
		aPos, ok2 := pos[b.Graph.Instr(a)]
		if !ok1 || !ok2 {
			t.Fatalf("could not locate moved instrs in new graph")
		}
		if wPos < aPos {
			t.Errorf("dW %s scheduled before its a2a %s", b.Graph.Instr(w).Name, b.Graph.Instr(a).Name)
		}
	}
}

func TestOverlapBounded(t *testing.T) {
	b, cm := buildFixture(t)
	res, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlappedUs <= 0 {
		t.Error("expected positive predicted overlap")
	}
	if res.OverlappedUs > res.A2ATotalUs {
		t.Errorf("overlap %v exceeds targeted a2a time %v", res.OverlappedUs, res.A2ATotalUs)
	}
}

// The headline effect: scheduling dW into backward all-to-alls reduces the
// simulated iteration time.
func TestEndToEndSpeedup(t *testing.T) {
	b, cm := buildFixture(t)
	ex := &sim.Executor{Cost: cm}
	base, err := ex.Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ex.Run(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalUs >= base.TotalUs {
		t.Errorf("dW scheduling did not speed up: %v -> %v us", base.TotalUs, opt.TotalUs)
	}
	if opt.NonOverlappedCommUs >= base.NonOverlappedCommUs {
		t.Errorf("non-overlapped comm did not shrink: %v -> %v us",
			base.NonOverlappedCommUs, opt.NonOverlappedCommUs)
	}
}

// TestBestFitBeatsFirstFit builds a graph on which the two strategies
// part: all-to-alls A and B of one size, a dW x that depends on neither
// and comes first in program order, at about 0.6 t_A, and a dW z that
// consumes B's output, at just over t_A. First-fit fills A with x, then
// z, and leaves B nothing it may overlap; best-fit fills A with z alone
// and B with x.
func TestBestFitBeatsFirstFit(t *testing.T) {
	g := ir.NewGraph()
	tensor := func(name string) int { return g.NewTensor(name, ir.Shape{8}, ir.F16, ir.Activation).ID }
	emit := func(in *ir.Instr) *ir.Instr { g.Emit(in); return in }
	dW := func(flops float64, in int, name string) *ir.Instr {
		return emit(&ir.Instr{Op: ir.OpMatMul, Grad: ir.GradDW, FLOPs: flops, Bytes: 1 << 20, Ins: []int{in}, Outs: []int{tensor(name)}})
	}
	a2a := func(name string) *ir.Instr {
		return emit(&ir.Instr{Op: ir.OpAllToAll, Bytes: 64 << 20, CommDevices: 16, Ins: []int{tensor(name + ".in")}, Outs: []int{tensor(name + ".out")}})
	}
	x := dW(7.2e11, tensor("x.in"), "x.grad")
	a := a2a("a")
	b := a2a("b")
	z := dW(1.3e12, b.Outs[0], "z.grad")

	cm := cost.NewModel(hw.V100Cluster(2))
	tA, tx, tz := cm.PredictInstr(a), cm.PredictInstr(x), cm.PredictInstr(z)
	if !(tx < tA && tz >= tA && tz-tA < tA-tx) {
		t.Fatalf("t_A %v, t_x %v, t_z %v µs: best-fit must prefer z for A, and z alone must cover it", tA, tx, tz)
	}
	best, err := Run(g, cm, Options{Strategy: BestFit})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(g, cm, Options{Strategy: FirstFit})
	if err != nil {
		t.Fatal(err)
	}
	if best.OverlappedUs <= first.OverlappedUs {
		t.Errorf("best-fit overlap %v µs <= first-fit %v µs (assignments %v, %v)",
			best.OverlappedUs, first.OverlappedUs, best.Assignments, first.Assignments)
	}
}

func TestNoDWNoChange(t *testing.T) {
	// A graph without dW ops must pass through untouched.
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{8}, ir.F16, ir.Activation)
	y := g.NewTensor("y", ir.Shape{8}, ir.F16, ir.Activation)
	z := g.NewTensor("z", ir.Shape{8}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Op: ir.OpMatMul, FLOPs: 1e9, Ins: []int{x.ID}, Outs: []int{y.ID}})
	g.Emit(&ir.Instr{Op: ir.OpAllToAll, Bytes: 1 << 20, CommDevices: 16, Ins: []int{y.ID}, Outs: []int{z.ID}})
	cm := cost.NewModel(hw.V100Cluster(2))
	res, err := Run(g, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 0 {
		t.Error("no dW ops, no assignments expected")
	}
	for i, in := range res.Graph.Instrs {
		if in.Op != g.Instr(i).Op {
			t.Error("instruction order changed in a graph with nothing to schedule")
		}
	}
}

func TestPrioritySortRespectsDeps(t *testing.T) {
	g := ir.NewGraph()
	a := g.NewTensor("a", ir.Shape{2}, ir.F16, ir.Activation)
	b := g.NewTensor("b", ir.Shape{2}, ir.F16, ir.Activation)
	c := g.NewTensor("c", ir.Shape{2}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Op: ir.OpGeLU, Ins: []int{a.ID}, Outs: []int{b.ID}})
	g.Emit(&ir.Instr{Op: ir.OpGeLU, Ins: []int{b.ID}, Outs: []int{c.ID}})
	// Adversarial ranks demand the dependent instruction first.
	order := ir.PrioritySort(g, []float64{10, 0})
	if order[0] != 0 || order[1] != 1 {
		t.Errorf("prioritySort violated dependencies: %v", order)
	}
	if err := g.ValidateSchedule(order); err != nil {
		t.Error(err)
	}
}

func TestPrioritySortFollowsRanksWhenFree(t *testing.T) {
	g := ir.NewGraph()
	for i := 0; i < 4; i++ {
		x := g.NewTensor("x", ir.Shape{2}, ir.F16, ir.Activation)
		y := g.NewTensor("y", ir.Shape{2}, ir.F16, ir.Activation)
		g.Emit(&ir.Instr{Op: ir.OpGeLU, Ins: []int{x.ID}, Outs: []int{y.ID}})
	}
	order := ir.PrioritySort(g, []float64{3, 1, 2, 0})
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
