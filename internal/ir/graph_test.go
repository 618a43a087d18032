package ir

import (
	"testing"
	"testing/quick"
)

// buildDiamond constructs:
//
//	a = matmul(x, w1)
//	b = gelu(a)
//	c = matmul(a, w2)   // independent of b
//	d = add(b, c)
func buildDiamond(t *testing.T) (*Graph, []*Instr) {
	t.Helper()
	g := NewGraph()
	x := g.NewTensor("x", Shape{4, 8}, F32, Activation)
	w1 := g.NewTensor("w1", Shape{8, 8}, F32, Weight)
	w2 := g.NewTensor("w2", Shape{8, 8}, F32, Weight)
	a := g.NewTensor("a", Shape{4, 8}, F32, Activation)
	b := g.NewTensor("b", Shape{4, 8}, F32, Activation)
	c := g.NewTensor("c", Shape{4, 8}, F32, Activation)
	d := g.NewTensor("d", Shape{4, 8}, F32, Activation)

	i0 := g.Emit(&Instr{Name: "mm1", Op: OpMatMul, Ins: []int{x.ID, w1.ID}, Outs: []int{a.ID}})
	i1 := g.Emit(&Instr{Name: "gelu", Op: OpGeLU, Ins: []int{a.ID}, Outs: []int{b.ID}})
	i2 := g.Emit(&Instr{Name: "mm2", Op: OpMatMul, Ins: []int{a.ID, w2.ID}, Outs: []int{c.ID}})
	i3 := g.Emit(&Instr{Name: "add", Op: OpAdd, Ins: []int{b.ID, c.ID}, Outs: []int{d.ID}})
	return g, []*Instr{i0, i1, i2, i3}
}

func TestGraphBasics(t *testing.T) {
	g, ins := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.Producer(ins[0].Outs[0]); got != ins[0].ID {
		t.Errorf("Producer(a) = @%d, want @%d", got, ins[0].ID)
	}
	if got := g.Producer(0); got != -1 {
		t.Errorf("Producer(graph input) = %d, want -1", got)
	}
	if got := len(g.Consumers(ins[0].Outs[0])); got != 2 {
		t.Errorf("a has %d consumers, want 2", got)
	}
}

func TestAdjacency(t *testing.T) {
	g, ins := buildDiamond(t)
	if got := g.Succs(ins[0].ID); len(got) != 2 {
		t.Errorf("Succs(mm1) = %v, want 2 entries", got)
	}
	if got := g.Preds(ins[3].ID); len(got) != 2 {
		t.Errorf("Preds(add) = %v, want 2 entries", got)
	}
	if got := g.Preds(ins[0].ID); len(got) != 0 {
		t.Errorf("Preds(mm1) = %v, want none", got)
	}
}

func TestReachability(t *testing.T) {
	g, ins := buildDiamond(t)
	from0 := g.ReachableFrom(ins[0].ID)
	for _, id := range []int{ins[1].ID, ins[2].ID, ins[3].ID} {
		if !from0[id] {
			t.Errorf("@%d should be reachable from mm1", id)
		}
	}
	if from0[ins[0].ID] {
		t.Error("a node must not be reachable from itself in a DAG")
	}
	to3 := g.ReachableTo(ins[3].ID)
	for _, id := range []int{ins[0].ID, ins[1].ID, ins[2].ID} {
		if !to3[id] {
			t.Errorf("@%d should reach add", id)
		}
	}
}

func TestIndependent(t *testing.T) {
	g, ins := buildDiamond(t)
	// gelu and mm2 are the two sides of the diamond: independent.
	if !g.Independent(ins[1].ID, ins[2].ID) {
		t.Error("gelu and mm2 must be independent")
	}
	if g.Independent(ins[0].ID, ins[3].ID) {
		t.Error("mm1 and add are ordered, not independent")
	}
	if g.Independent(ins[0].ID, ins[0].ID) {
		t.Error("an instruction is not independent of itself")
	}
}

func TestValidateScheduleAcceptsLegalReorder(t *testing.T) {
	g, ins := buildDiamond(t)
	// Swap the two independent middle instructions.
	order := []int{ins[0].ID, ins[2].ID, ins[1].ID, ins[3].ID}
	if err := g.ValidateSchedule(order); err != nil {
		t.Errorf("legal reorder rejected: %v", err)
	}
}

func TestValidateScheduleRejectsViolations(t *testing.T) {
	g, ins := buildDiamond(t)
	cases := map[string][]int{
		"dependency violation": {ins[1].ID, ins[0].ID, ins[2].ID, ins[3].ID},
		"duplicate":            {ins[0].ID, ins[0].ID, ins[2].ID, ins[3].ID},
		"short":                {ins[0].ID, ins[1].ID},
		"out of range":         {ins[0].ID, ins[1].ID, ins[2].ID, 99},
	}
	for name, order := range cases {
		if err := g.ValidateSchedule(order); err == nil {
			t.Errorf("%s: schedule %v accepted", name, order)
		}
	}
}

func TestEmitRejectsDoubleProducer(t *testing.T) {
	g := NewGraph()
	x := g.NewTensor("x", Shape{2}, F32, Activation)
	y := g.NewTensor("y", Shape{2}, F32, Activation)
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{x.ID}, Outs: []int{y.ID}})
	defer func() {
		if recover() == nil {
			t.Error("second producer for a tensor must panic")
		}
	}()
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{x.ID}, Outs: []int{y.ID}})
}

func TestValidateCatchesForwardReference(t *testing.T) {
	g := NewGraph()
	x := g.NewTensor("x", Shape{2}, F32, Activation)
	y := g.NewTensor("y", Shape{2}, F32, Activation)
	// Consume y before it is produced.
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{y.ID}, Outs: []int{}})
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{x.ID}, Outs: []int{y.ID}})
	if err := g.Validate(); err == nil {
		t.Error("forward reference must fail validation")
	}
}

// The producer/consumer tables are dense slices indexed by tensor ID: IDs
// outside them read as graph inputs nobody consumes, emitting an
// instruction that names an unknown tensor must not panic, and Validate
// must still report that tensor.
func TestProducerConsumerTablesBoundsChecked(t *testing.T) {
	g, _ := buildDiamond(t)
	for _, id := range []int{-1, len(g.Tensors), 1 << 20} {
		if p := g.Producer(id); p != -1 {
			t.Errorf("Producer(%d) = %d, want -1", id, p)
		}
		if c := g.Consumers(id); c != nil {
			t.Errorf("Consumers(%d) = %v, want none", id, c)
		}
	}
	for name, in := range map[string]*Instr{
		"negative input":  {Op: OpGeLU, Ins: []int{-3}, Outs: []int{}},
		"negative output": {Op: OpGeLU, Ins: []int{}, Outs: []int{-3}},
		"unknown input":   {Op: OpGeLU, Ins: []int{7}, Outs: []int{}},
		"unknown output":  {Op: OpGeLU, Ins: []int{}, Outs: []int{7}},
	} {
		g := NewGraph()
		g.NewTensor("x", Shape{2}, F32, Activation)
		g.Emit(in)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an unknown tensor", name)
		}
	}
}

func TestStats(t *testing.T) {
	g := NewGraph()
	x := g.NewTensor("x", Shape{4, 4}, F16, Activation)
	w := g.NewTensor("w", Shape{4, 4}, F16, Weight)
	y := g.NewTensor("y", Shape{4, 4}, F16, Activation)
	z := g.NewTensor("z", Shape{4, 4}, F16, Activation)
	gw := g.NewTensor("gw", Shape{4, 4}, F16, Gradient)
	g.Emit(&Instr{Op: OpMatMul, Ins: []int{x.ID, w.ID}, Outs: []int{y.ID}, FLOPs: 128})
	g.Emit(&Instr{Op: OpAllToAll, Ins: []int{y.ID}, Outs: []int{z.ID}, Bytes: 32, CommDevices: 8})
	g.Emit(&Instr{Op: OpMatMul, Grad: GradDW, Phase: Backward, Ins: []int{z.ID}, Outs: []int{gw.ID}, FLOPs: 128})
	s := g.ComputeStats()
	if s.Instrs != 3 || s.CommInstrs != 1 || s.DWInstrs != 1 {
		t.Errorf("stats counts = %+v", s)
	}
	if s.TotalFLOPs != 256 || s.CommBytes != 32 {
		t.Errorf("stats totals = %+v", s)
	}
	if s.WeightBytes != 4*4*2 {
		t.Errorf("WeightBytes = %d, want 32", s.WeightBytes)
	}
}

func TestAllToAlls(t *testing.T) {
	g := NewGraph()
	x := g.NewTensor("x", Shape{2}, F16, Activation)
	y := g.NewTensor("y", Shape{2}, F16, Activation)
	z := g.NewTensor("z", Shape{2}, F16, Activation)
	g.Emit(&Instr{Op: OpAllToAll, Ins: []int{x.ID}, Outs: []int{y.ID}})
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{y.ID}, Outs: []int{z.ID}})
	g.Emit(&Instr{Op: OpAllToAll, Ins: []int{z.ID}, Outs: []int{}})
	a2a := g.AllToAlls()
	if len(a2a) != 2 || a2a[0] != 0 || a2a[1] != 2 {
		t.Errorf("AllToAlls = %v, want [0 2]", a2a)
	}
}

// Property: on a randomly generated chain-with-branches DAG, Independent is
// symmetric and mutually exclusive with reachability.
func TestIndependentSymmetryProperty(t *testing.T) {
	build := func(n int) *Graph {
		g := NewGraph()
		prev := g.NewTensor("in", Shape{2}, F32, Activation)
		tensors := []*Tensor{prev}
		for i := 0; i < n; i++ {
			out := g.NewTensor("t", Shape{2}, F32, Activation)
			// Alternate between chaining and branching off an older tensor.
			src := tensors[(i*7)%len(tensors)]
			g.Emit(&Instr{Op: OpGeLU, Ins: []int{src.ID}, Outs: []int{out.ID}})
			tensors = append(tensors, out)
		}
		return g
	}
	f := func(seed uint8) bool {
		n := 3 + int(seed)%12
		g := build(n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if g.Independent(a, b) != g.Independent(b, a) {
					return false
				}
				reach := g.ReachableFrom(a)[b] || g.ReachableTo(a)[b]
				if reach == g.Independent(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.NumElems() != 24 {
		t.Errorf("NumElems = %d", s.NumElems())
	}
	if (Shape{}).NumElems() != 0 {
		t.Error("empty shape should have 0 elements")
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Error("Clone must not alias")
	}
	if !s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Equal misbehaves")
	}
}

func TestDTypeSize(t *testing.T) {
	if F16.Size() != 2 || F32.Size() != 4 || I32.Size() != 4 {
		t.Error("wrong dtype sizes")
	}
}

func TestTensorBytes(t *testing.T) {
	tt := &Tensor{Shape: Shape{8, 4}, DType: F16}
	if tt.Bytes() != 64 {
		t.Errorf("Bytes = %d, want 64", tt.Bytes())
	}
}
