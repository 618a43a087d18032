package lancet_test

import (
	"testing"

	"lancet"
	"lancet/internal/ir"
)

// sharing checks that out shares input's instructions: every instruction
// outside a pipeline is one of input's *ir.Instr, each at most once, and
// every pipeline instruction is fresh. fresh reports whether an
// instruction outside a pipeline may be a new one (FasterMoE's edited
// payloads); it returns how many were. The shared instructions and the
// distinct sources of the micro-instances must account for every input
// instruction.
func sharing(t *testing.T, name string, input, out *ir.Graph, fresh func(*ir.Instr) bool) int {
	t.Helper()
	pos := make(map[*ir.Instr]int, len(input.Instrs))
	for i, in := range input.Instrs {
		pos[in] = i
	}
	seen := make(map[*ir.Instr]bool)
	sources := make(map[int]bool)
	edited := 0
	for i, in := range out.Instrs {
		_, shared := pos[in]
		switch {
		case in.Group >= 0:
			if shared {
				t.Errorf("%s: pipeline instruction @%d %s is the input's", name, i, in.Name)
			}
			if in.Op != ir.OpPartitionSplit && in.Op != ir.OpReconstruct {
				sources[in.SrcID] = true
			}
		case shared:
			if seen[in] {
				t.Errorf("%s: input instruction %s appears twice", name, in.Name)
			}
			seen[in] = true
		case fresh != nil && fresh(in):
			edited++
		default:
			t.Errorf("%s: @%d %s is a copy of an unchanged instruction", name, i, in.Name)
		}
	}
	if got := len(seen) + edited + len(sources); got != len(input.Instrs) {
		t.Errorf("%s: %d shared, %d edited and %d partitioned instructions, input has %d",
			name, len(seen), edited, len(sources), len(input.Instrs))
	}
	return edited
}

// TestPlansShareInstructions pins the rewrites' sharing (DESIGN.md §2) on
// the 45 plan-cold shapes: the Lancet and Tutel graphs hold the session
// graph's own instructions everywhere outside their pipelines. FasterMoE's
// holds them too, except that when it shadows an expert every MoE layer's
// gradient all-reduce it edits is a copy of its own. The session graph
// dumps as it did before the three frameworks planned.
func TestPlansShareInstructions(t *testing.T) {
	shadowed := 0
	for _, shape := range goldenShapes() {
		sess, err := shape.session()
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		name := shape.model + "/" + shape.fleet + "/" + shape.routing
		g := sess.Built.Graph
		before := graphHash(g)
		lp, err := sess.Lancet(lancet.Options{})
		if err != nil {
			t.Fatalf("%s: lancet: %v", name, err)
		}
		sharing(t, name+" lancet", g, lp.Graph, nil)
		tp, err := sess.Baseline(lancet.FrameworkTutel)
		if err != nil {
			t.Fatalf("%s: tutel: %v", name, err)
		}
		sharing(t, name+" tutel", g, tp.Graph, nil)
		fp, err := sess.Baseline(lancet.FrameworkFasterMoE)
		if err != nil {
			t.Fatalf("%s: fastermoe: %v", name, err)
		}
		moeBucket := func(in *ir.Instr) bool {
			return in.Op == ir.OpAllReduce && in.Layer >= 0 && sess.Config.IsMoELayer(in.Layer)
		}
		buckets := 0
		for _, in := range g.Instrs {
			if moeBucket(in) {
				buckets++
			}
		}
		switch edited := sharing(t, name+" fastermoe", g, fp.Graph, moeBucket); edited {
		case 0:
		case buckets:
			shadowed++
		default:
			t.Errorf("%s: fastermoe copied %d of %d MoE gradient buckets, want none or all", name, edited, buckets)
		}
		if after := graphHash(g); after != before {
			t.Errorf("%s: planning changed the session graph: %s -> %s", name, before, after)
		}
	}
	if shadowed == 0 {
		t.Error("no shape shadowed an expert; the copy-on-edit path went untested")
	}
}
