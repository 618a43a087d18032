package commprio

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

func TestRunMovesAllReducesBehindA2As(t *testing.T) {
	b, _ := fixture(t)
	res, err := Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Fatal("expected some all-reduces to move")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("rewritten graph invalid: %v", err)
	}
	// Every all-reduce that used to precede an independent all-to-all must
	// now follow it (the hop that removes the head-of-line block). The
	// rewrite shares the input's instructions, so they are located across
	// graphs by pointer.
	pos := make(map[*ir.Instr]int)
	for i, in := range res.Graph.Instrs {
		pos[in] = i
	}
	g := b.Graph
	for id, in := range g.Instrs {
		if in.Op != ir.OpAllReduce {
			continue
		}
		reach := g.ReachableFrom(id)
		for _, a := range g.AllToAlls() {
			if a > id && !reach[a] {
				arPos, aPos := pos[in], pos[g.Instr(a)]
				if arPos < aPos {
					t.Errorf("all-reduce %s still precedes the a2a %s it blocked",
						in.Name, g.Instr(a).Name)
				}
				break // only the first blocked a2a matters (minimal displacement)
			}
		}
	}
}

func TestRunSpeedsUpCommBoundModel(t *testing.T) {
	b, cm := fixture(t)
	ex := &sim.Executor{Cost: cm}
	base, err := ex.Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ex.Run(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalUs > base.TotalUs {
		t.Errorf("deprioritizing all-reduces slowed execution: %v -> %v us", base.TotalUs, opt.TotalUs)
	}
}

func TestRunNoCollectivesNoChange(t *testing.T) {
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{4}, ir.F16, ir.Activation)
	y := g.NewTensor("y", ir.Shape{4}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Op: ir.OpMatMul, FLOPs: 1e9, Ins: []int{x.ID}, Outs: []int{y.ID}})
	res, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 || res.Graph != g {
		t.Error("graph without all-to-alls must pass through unchanged")
	}
}

func TestComposesWithLancetPasses(t *testing.T) {
	// commprio must leave a valid graph that the dW pass already reordered.
	b, cm := fixture(t)
	res, err := Run(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Run it twice: idempotent in effect (second run may move 0 or re-rank
	// but must stay valid).
	res2, err := Run(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = cm
}
