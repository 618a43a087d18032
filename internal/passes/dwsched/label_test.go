package dwsched

import (
	"slices"
	"testing"

	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
)

// refLabel is the labelling the bitset passes replaced, kept as their
// reference: per all-to-all, one depth-first walk each way over the
// dependency table, and the dW instructions neither walk reaches, in
// program order.
func refLabel(g *ir.Graph, a2as, dws []int) [][]int {
	out := make([][]int, len(a2as))
	for j, a := range a2as {
		from, to := g.ReachableFrom(a), g.ReachableTo(a)
		for _, w := range dws {
			if !from[w] && !to[w] {
				out[j] = append(out[j], w)
			}
		}
	}
	return out
}

// dwFeedsA2A builds a program in which a weight gradient feeds an
// all-to-all, so only the backward pass (Ancestors) excludes it:
//
//	dw  = dW(x)             (weight gradient)
//	a0  = all_to_all(dw)    (depends on dw)
//	dw2 = dW(y)             (independent of a0)
func dwFeedsA2A() *ir.Graph {
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{4}, ir.F16, ir.Activation)
	y := g.NewTensor("y", ir.Shape{4}, ir.F16, ir.Activation)
	dw := g.NewTensor("dw", ir.Shape{4}, ir.F16, ir.Gradient)
	a := g.NewTensor("a", ir.Shape{4}, ir.F16, ir.Activation)
	dw2 := g.NewTensor("dw2", ir.Shape{4}, ir.F16, ir.Gradient)
	g.Emit(&ir.Instr{Name: "dw", Op: ir.OpMatMul, Grad: ir.GradDW, Ins: []int{x.ID}, Outs: []int{dw.ID}})
	g.Emit(&ir.Instr{Name: "a2a", Op: ir.OpAllToAll, Ins: []int{dw.ID}, Outs: []int{a.ID}})
	g.Emit(&ir.Instr{Name: "dw2", Op: ir.OpMatMul, Grad: ir.GradDW, Ins: []int{y.ID}, Outs: []int{dw2.ID}})
	return g
}

// label's candidate sets must equal the reference walks' — the same dW
// instructions in the same order — for every all-to-all of the three
// models and of three variants: GPT2-L with an MoE layer in every block
// (96 all-to-alls, two bitset words per row), GPT2-S with a shared expert
// and GPT2-S under ZeRO-3. A hand-built program where a weight gradient
// feeds an all-to-all covers the backward pass, which no model graph
// exercises: in them, no dW instruction reaches an all-to-all.
func TestLabelMatchesReference(t *testing.T) {
	type fixture struct {
		name string
		cfg  model.Config
	}
	gpt2lEvery := model.GPT2LMoE()
	gpt2lEvery.MoEEvery = 1
	shared := model.GPT2SMoE()
	shared.SharedExpert = true
	zero3 := model.GPT2SMoE()
	zero3.ZeRO3 = true
	graphs := map[string]*ir.Graph{"dw-feeds-a2a": dwFeedsA2A()}
	for _, f := range []fixture{
		{"gpt2-s", model.GPT2SMoE()},
		{"gpt2-l", model.GPT2LMoE()},
		{"vit-s", model.ViTSMoE()},
		{"gpt2-l-moe-every-1", gpt2lEvery},
		{"gpt2-s-shared-expert", shared},
		{"gpt2-s-zero3", zero3},
	} {
		f.cfg.BatchPerGPU = 8
		b, err := model.Build(f.cfg, hw.V100Cluster(2))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		graphs[f.name] = b.Graph
	}
	for name, g := range graphs {
		a2as := g.AllToAlls()
		var dws []int
		for _, in := range g.Instrs {
			if in.IsDW() {
				dws = append(dws, in.ID)
			}
		}
		if len(a2as) == 0 || len(dws) == 0 {
			t.Fatalf("%s: %d all-to-alls and %d dW ops; the comparison needs both", name, len(a2as), len(dws))
		}
		if name == "gpt2-l-moe-every-1" && len(a2as) <= 64 {
			t.Fatalf("%s has %d all-to-alls; it must need a second bitset word", name, len(a2as))
		}
		got, want := label(g, a2as, dws), refLabel(g, a2as, dws)
		for j, a := range a2as {
			if !slices.Equal(got[j], want[j]) {
				t.Errorf("%s: all-to-all @%d: candidates %v, want %v", name, a, got[j], want[j])
			}
		}
	}
}
