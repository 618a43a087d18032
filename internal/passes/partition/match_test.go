package partition

import (
	"fmt"
	"slices"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
)

// blockEdit is the one way blockGraph's edited block differs from the
// others.
type blockEdit int

const (
	editNone blockEdit = iota
	// editFLOPs doubles the block's expert FLOPs.
	editFLOPs
	// editLastUse drops the backward read of the block's dispatched
	// tokens, so their last use moves from past every forward window to
	// the block's experts.
	editLastUse
	// editProducer makes the block's residual add read the block input
	// of the block before, which every block's input also feeds backward,
	// so only the producer's distance changes.
	editProducer
	// editSharedInput makes the block's gather read the producer-less
	// routing input of the block before: two blocks share it.
	editSharedInput
	// editUnusedResult leaves the block's expert load counts unused,
	// where every other block's feed backward.
	editUnusedResult
)

// Positions within a block of blockGraph.
const (
	blockLN = iota
	blockGate
	blockDispatch
	blockExperts
	blockCombine
	blockGather
	blockAdd
	blockLen
)

// blockGraph builds blocks identical forward MoE blocks (layernorm, gate,
// dispatch all-to-all, experts, combine all-to-all, gather, residual add)
// on 16 devices and one backward instruction reading every block's
// dispatched tokens, expert load counts and output. With routingInputs,
// each block's gather also reads a producer-less routing input of its
// own. Block edited differs from the others by edit.
func blockGraph(blocks int, routingInputs bool, edited int, edit blockEdit) *ir.Graph {
	const (
		b, s, h, ffn, e, c, devices = 16, 64, 256, 1024, 16, 80, 16
		tokens                      = b * s
		a2aBytes                    = int64(e * c * h * 2)
		actBytes                    = int64(tokens * h * 2)
	)
	g := ir.NewGraph()
	act := func(name string, shape ...int) int {
		return g.NewTensor(name, ir.Shape(shape), ir.F16, ir.Activation).ID
	}
	weight := func(name string, shape ...int) int {
		return g.NewTensor(name, ir.Shape(shape), ir.F16, ir.Weight).ID
	}
	meta := func(name string) int {
		return g.NewTensor(name, ir.Shape{tokens}, ir.I32, ir.Meta).ID
	}
	var routing []int
	for l := range blocks {
		routing = append(routing, meta(fmt.Sprintf("l%d.routing", l)))
	}
	x := act("input", b, s, h)
	var inputs, dispatched, loads, outputs []int
	for l := range blocks {
		edit := edit
		if l != edited {
			edit = editNone
		}
		inputs = append(inputs, x)
		lnOut := act("ln", b, s, h)
		g.Emit(&ir.Instr{Op: ir.OpLayerNorm, Ins: []int{x, weight("w_ln", h)}, Outs: []int{lnOut}, Bytes: 2 * actBytes})
		disp, gateMeta := act("gate_dispatch", e, c, h), meta("gate_meta")
		g.Emit(&ir.Instr{Op: ir.OpGate, Ins: []int{lnOut, weight("w_gate", h, e)}, Outs: []int{disp, gateMeta},
			FLOPs: 2 * tokens * e * h, Bytes: 2 * actBytes})
		d1 := act("dispatched", e, c, h)
		g.Emit(&ir.Instr{Op: ir.OpAllToAll, Ins: []int{disp}, Outs: []int{d1}, Bytes: a2aBytes, CommDevices: devices})
		if edit != editLastUse {
			dispatched = append(dispatched, d1)
		}
		flops := 4.0 * e * c * h * ffn
		if edit == editFLOPs {
			flops *= 2
		}
		e1, load := act("experts_out", e, c, h), meta("expert_load")
		g.Emit(&ir.Instr{Op: ir.OpExpertFFN, Ins: []int{d1, weight("w_experts", e, h, ffn)}, Outs: []int{e1, load},
			FLOPs: flops, Kernels: 2})
		if edit != editUnusedResult {
			loads = append(loads, load)
		}
		c1 := act("combined", e, c, h)
		g.Emit(&ir.Instr{Op: ir.OpAllToAll, Ins: []int{e1}, Outs: []int{c1}, Bytes: a2aBytes, CommDevices: devices})
		gatherIns := []int{c1, gateMeta}
		if routingInputs {
			r := routing[l]
			if edit == editSharedInput {
				r = routing[l-1]
			}
			gatherIns = append(gatherIns, r)
		}
		o := act("moe_out", b, s, h)
		g.Emit(&ir.Instr{Op: ir.OpMoEGather, Ins: gatherIns, Outs: []int{o}, Bytes: 2 * actBytes})
		resid := x
		if edit == editProducer {
			resid = inputs[l-1]
		}
		y := act("block_out", b, s, h)
		g.Emit(&ir.Instr{Op: ir.OpAdd, Ins: []int{resid, o}, Outs: []int{y}, Bytes: 3 * actBytes})
		outputs = append(outputs, y)
		x = y
	}
	grad := g.NewTensor("grad", ir.Shape{b, s, h}, ir.F16, ir.Gradient).ID
	g.Emit(&ir.Instr{Op: ir.OpAdd, Grad: ir.GradDX, Phase: ir.Backward,
		Ins: slices.Concat(dispatched, loads, outputs), Outs: []int{grad}, Bytes: actBytes})
	return g
}

// Each edit of one block must stop the matched prefix at the first group
// where a window reused from the block before would read the difference,
// and Run and every candidate it records must still equal the reference
// sweep's. γ is tiny, so every instruction is a group of its own, and ι of
// 16 groups lets the windows of a block's start reach two blocks on.
func TestSharedGroupsStopAtTheDifference(t *testing.T) {
	const blocks, edited = 6, 3
	cl := hw.V100Cluster(2)
	cm := cost.NewModel(cl)
	opts := Options{GroupUs: 1e-9, MaxRangeGroups: 16, GatePartialBatch: true}
	start := func(l, pos int) int { return l*blockLen + pos }
	for _, c := range []struct {
		name    string
		routing bool
		edit    blockEdit
		// from is the start, in block edited or the block before, whose
		// match with the same start one block back is checked; base and
		// want are the groups it shares unedited and edited.
		from       int
		base, want int
	}{
		{"expert FLOPs", false, editFLOPs, start(edited, blockLN), 16, blockExperts},
		{"expert FLOPs, reached from the block before", false, editFLOPs, start(edited-1, blockGate), 16, blockLen + blockExperts - blockGate},
		// The dispatched tokens are a result of the start's second group,
		// now last used just past it.
		{"last use", false, editLastUse, start(edited, blockGate), 16, blockExperts - blockGate},
		{"producer distance", false, editProducer, start(edited, blockLN), 16, blockAdd},
		// The shared input lets the match pass the edited block's gather,
		// and stops it where the earlier block's windows read the input a
		// second time.
		{"shared input", true, editSharedInput, start(edited, blockLN), blockGather, blockLen + blockGather},
		// A result used after every window in one block and never in the
		// other is read differently by every window holding it.
		{"unused result", false, editUnusedResult, start(edited, blockLN), 16, blockExperts},
	} {
		for _, edit := range []blockEdit{editNone, c.edit} {
			g := blockGraph(blocks, c.routing, edited, edit)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s edited=%t", c.name, edit != editNone)
			match, recs, reused := dpMatches(g, cm, opts)
			if len(match) != blocks*blockLen {
				t.Fatalf("%s: %d groups, want one per forward instruction (%d)", c.name, len(match), blocks*blockLen)
			}
			want := c.base
			if edit != editNone {
				want = c.want
			}
			if got := match[c.from]; got != [2]int{c.from - blockLen, want} {
				t.Errorf("%s: start %d repeats start %d for %d groups, want %d for %d",
					name, c.from, got[0], got[1], c.from-blockLen, want)
			}
			if reused == 0 {
				t.Errorf("%s: no candidate of %d reused", name, len(recs))
			}
			res, err := Run(g, cm, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, cands := refRun(g, cm, opts)
			sameResult(t, name, res, ref)
			sameCandidates(t, name, recs, cands)
		}
	}
}
