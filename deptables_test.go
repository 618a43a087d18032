package lancet_test

import (
	"math/rand"
	"testing"

	"lancet"
	"lancet/internal/ir"
)

// TestDependencyTablesMatchAdjacency checks the dependency table the
// planner reads against scans of the instruction list. Over the 45
// plan-cold shapes, every tensor of the model graph and of the Lancet,
// Tutel and FasterMoE plan graphs must have LastUse equal to the last
// instruction reading it, or -1 when nothing does. Then random adjacent
// swaps walk each model's program order through valid and invalid
// schedules, and ValidateSchedule, which reads operands' producers from
// the table, must give every schedule the verdict of a check that finds
// each operand's producer among the instructions' outputs.
func TestDependencyTablesMatchAdjacency(t *testing.T) {
	models := map[string]*ir.Graph{}
	for _, shape := range goldenShapes() {
		sess, err := shape.session()
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		graphs := map[string]*ir.Graph{"model": sess.Built.Graph}
		models[shape.model] = sess.Built.Graph
		lp, err := sess.Lancet(lancet.Options{})
		if err != nil {
			t.Fatalf("%v: lancet: %v", shape, err)
		}
		graphs[lancet.FrameworkLancet] = lp.Graph
		for _, fw := range []string{lancet.FrameworkTutel, lancet.FrameworkFasterMoE} {
			bp, err := sess.Baseline(fw)
			if err != nil {
				t.Fatalf("%v: %s: %v", shape, fw, err)
			}
			graphs[fw] = bp.Graph
		}
		for name, g := range graphs {
			last := make([]int, len(g.Tensors))
			for x := range last {
				last[x] = -1
			}
			for _, in := range g.Instrs {
				for _, x := range in.Ins {
					last[x] = in.ID
				}
			}
			for x, want := range last {
				if got := g.LastUse(x); got != want {
					t.Fatalf("%v %s: LastUse(%%%d) = %d, want %d", shape, name, x, got, want)
				}
			}
		}
	}

	for name, g := range models {
		rng := rand.New(rand.NewSource(1))
		order := g.DefaultSchedule()
		accepted, rejected := 0, 0
		for step := 0; step < 2000; step++ {
			i := rng.Intn(len(order) - 1)
			order[i], order[i+1] = order[i+1], order[i]
			got, want := g.ValidateSchedule(order) == nil, predsVerdict(g, order)
			if got != want {
				t.Fatalf("%s step %d: ValidateSchedule accepts=%v, the scan %v", name, step, got, want)
			}
			if got {
				accepted++
			} else {
				rejected++
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Errorf("%s: %d schedules accepted and %d rejected; the walk must see both", name, accepted, rejected)
		}
	}
}

// predsVerdict reports whether the permutation order places the producer
// of every operand strictly before the instruction reading it, finding
// each producer by a scan of the instructions' outputs.
func predsVerdict(g *ir.Graph, order []int) bool {
	producer := make(map[int]int)
	for _, in := range g.Instrs {
		for _, y := range in.Outs {
			producer[y] = in.ID
		}
	}
	pos := make([]int, len(order))
	for p, id := range order {
		pos[id] = p
	}
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if p, ok := producer[x]; ok && pos[p] >= pos[in.ID] {
				return false
			}
		}
	}
	return true
}
