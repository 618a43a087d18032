package lancet_test

import (
	"math/rand"
	"slices"
	"testing"

	"lancet"
	"lancet/internal/ir"
)

// TestDependencyTablesMatchAdjacency checks the dependency table the
// planner reads against the CSR rows it no longer builds. Over the 45
// plan-cold shapes, every tensor of the model graph and of the Lancet,
// Tutel and FasterMoE plan graphs must have LastUse equal to the largest
// of its Consumers, or -1 when nothing consumes it. Then random adjacent
// swaps walk each model's program order through valid and invalid
// schedules, and ValidateSchedule, which reads operands' producers, must
// give every schedule the verdict of a check built on Preds.
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
			for x := range g.Tensors {
				want := -1
				if c := g.Consumers(x); len(c) > 0 {
					want = slices.Max(c)
				}
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
				t.Fatalf("%s step %d: ValidateSchedule accepts=%v, the Preds check %v", name, step, got, want)
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

// predsVerdict reports whether the permutation order places every
// predecessor (the CSR rows) strictly before the instruction it feeds.
func predsVerdict(g *ir.Graph, order []int) bool {
	pos := make([]int, len(order))
	for p, id := range order {
		pos[id] = p
	}
	for id := range g.Instrs {
		for _, p := range g.Preds(id) {
			if pos[p] >= pos[id] {
				return false
			}
		}
	}
	return true
}
