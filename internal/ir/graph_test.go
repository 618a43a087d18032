package ir

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// buildDiamond constructs:
//
//	a = matmul(x, w1)
//	b = gelu(a)
//	c = matmul(a, w2)   // independent of b
//	d = add(b, c)
func buildDiamond(t *testing.T) (*Graph, []int) {
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
	return g, []int{i0, i1, i2, i3}
}

func TestGraphBasics(t *testing.T) {
	g, ins := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.Producer(g.Instr(ins[0]).Outs[0]); got != ins[0] {
		t.Errorf("Producer(a) = @%d, want @%d", got, ins[0])
	}
	if got := g.Producer(0); got != -1 {
		t.Errorf("Producer(graph input) = %d, want -1", got)
	}
	if got := g.LastUse(g.Instr(ins[0]).Outs[0]); got != ins[2] {
		t.Errorf("LastUse(a) = @%d, want @%d", got, ins[2])
	}
}

// referenceAdj is an adjacency build kept as the reference the dependency
// table and PrioritySort are checked against: consumers appended once per
// operand in program order, and per instruction the sorted distinct
// producers of its inputs (preds) and the sorted distinct readers of its
// outputs (succs).
func referenceAdj(g *Graph) (preds, succs, consumers [][]int) {
	consumers = make([][]int, len(g.Tensors))
	preds = make([][]int, len(g.Instrs))
	succs = make([][]int, len(g.Instrs))
	for i, in := range g.Instrs {
		for _, x := range in.Ins {
			consumers[x] = append(consumers[x], i)
			if p := g.Producer(x); p >= 0 {
				preds[i] = append(preds[i], p)
				succs[p] = append(succs[p], i)
			}
		}
	}
	for i := range succs {
		succs[i] = dedup(succs[i])
		preds[i] = dedup(preds[i])
	}
	return preds, succs, consumers
}

func dedup(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// adjacencyMatches reports whether each tensor's LastUse is the largest
// of its reference consumers (-1 for none).
func adjacencyMatches(g *Graph) bool {
	_, _, consumers := referenceAdj(g)
	for x := range g.Tensors {
		last := -1
		if len(consumers[x]) > 0 {
			last = slices.Max(consumers[x])
		}
		if g.LastUse(x) != last {
			return false
		}
	}
	return true
}

// Property: LastUse agrees with the reference consumers on random DAGs
// (whose instructions may read one tensor twice), and again after one more
// Emit reads a tensor twice.
func TestAdjacencyMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 5+int(uint64(seed)%40))
		if !adjacencyMatches(g) {
			return false
		}
		last := g.Instrs[len(g.Instrs)-1].Outs[0]
		out := g.NewTensor("extra", Shape{2}, F32, Activation)
		g.Emit(&Instr{Op: OpAdd, Ins: []int{last, 0, last}, Outs: []int{out.ID}})
		return adjacencyMatches(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// reachableFrom returns the set (as a bitmap indexed by instruction ID)
// of instructions transitively reachable from id, excluding id itself. It
// builds successor lists from the operands' producers on each call, and is
// the reference Descendants is tested against.
func reachableFrom(g *Graph, id int) []bool {
	succs := make([][]int, len(g.Instrs))
	for i, in := range g.Instrs {
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= 0 {
				succs[p] = append(succs[p], i)
			}
		}
	}
	return walk(g, id, func(cur int, stack []int) []int {
		return append(stack, succs[cur]...)
	})
}

// reachableTo returns the set of instructions from which id is
// transitively reachable, excluding id itself: the reference for
// Ancestors. It walks the operands' producers.
func reachableTo(g *Graph, id int) []bool {
	return walk(g, id, func(cur int, stack []int) []int {
		for _, x := range g.Instrs[cur].Ins {
			if p := g.Producer(x); p >= 0 {
				stack = append(stack, p)
			}
		}
		return stack
	})
}

// walk is the depth-first search behind reachableFrom and reachableTo:
// push appends an instruction's neighbours to the stack, and walk marks
// every instruction it pops. id itself is marked only if a cycle leads
// back to it.
func walk(g *Graph, id int, push func(cur int, stack []int) []int) []bool {
	seen := make([]bool, len(g.Instrs))
	stack := push(id, nil)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = push(cur, stack)
	}
	return seen
}

// independent reports whether no directed path joins instructions a and b
// in either direction — the paper's condition (Sec. 4.1) for a weight
// gradient computation to overlap with an all-to-all — by the reference
// walks. The passes test it for many pairs at once with Descendants and
// Ancestors.
func independent(g *Graph, a, b int) bool {
	if a == b {
		return false
	}
	return !reachableFrom(g, a)[b] && !reachableTo(g, a)[b]
}

func TestReachability(t *testing.T) {
	g, ins := buildDiamond(t)
	from0 := reachableFrom(g, ins[0])
	for _, id := range []int{ins[1], ins[2], ins[3]} {
		if !from0[id] {
			t.Errorf("@%d should be reachable from mm1", id)
		}
	}
	if from0[ins[0]] {
		t.Error("a node must not be reachable from itself in a DAG")
	}
	to3 := reachableTo(g, ins[3])
	for _, id := range []int{ins[0], ins[1], ins[2]} {
		if !to3[id] {
			t.Errorf("@%d should reach add", id)
		}
	}
}

func TestIndependent(t *testing.T) {
	g, ins := buildDiamond(t)
	// gelu and mm2 are the two sides of the diamond: independent.
	if !independent(g, ins[1], ins[2]) {
		t.Error("gelu and mm2 must be independent")
	}
	if independent(g, ins[0], ins[3]) {
		t.Error("mm1 and add are ordered, not independent")
	}
	if independent(g, ins[0], ins[0]) {
		t.Error("an instruction is not independent of itself")
	}
}

func TestValidateScheduleAcceptsLegalReorder(t *testing.T) {
	g, ins := buildDiamond(t)
	// Swap the two independent middle instructions.
	order := []int{ins[0], ins[2], ins[1], ins[3]}
	if err := g.ValidateSchedule(order); err != nil {
		t.Errorf("legal reorder rejected: %v", err)
	}
}

func TestValidateScheduleRejectsViolations(t *testing.T) {
	g, ins := buildDiamond(t)
	cases := map[string][]int{
		"dependency violation": {ins[1], ins[0], ins[2], ins[3]},
		"duplicate":            {ins[0], ins[0], ins[2], ins[3]},
		"short":                {ins[0], ins[1]},
		"out of range":         {ins[0], ins[1], ins[2], 99},
	}
	for name, order := range cases {
		if err := g.ValidateSchedule(order); err == nil {
			t.Errorf("%s: schedule %v accepted", name, order)
		}
	}
}

// An instruction reading its own output is no schedule: Validate rejects
// it, and so must ValidateSchedule and ReorderedCopy, whose callers (the
// simulator among them) rely on every producer preceding its consumers.
// PrioritySort never releases it or its readers, so its order comes back
// short, as the reference walk's does.
func TestValidateScheduleRejectsSelfConsumption(t *testing.T) {
	g := NewGraph()
	x := g.NewTensor("x", Shape{2}, F32, Activation)
	y := g.NewTensor("y", Shape{2}, F32, Activation)
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{x.ID}, Outs: []int{}})
	g.Emit(&Instr{Op: OpAdd, Ins: []int{x.ID, y.ID}, Outs: []int{y.ID}})
	g.Emit(&Instr{Op: OpGeLU, Ins: []int{y.ID}, Outs: []int{}})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a self-consuming instruction")
	}
	if err := g.ValidateSchedule(g.DefaultSchedule()); err == nil {
		t.Error("ValidateSchedule accepted a self-consuming instruction")
	}
	if _, err := ReorderedCopy(g, g.DefaultSchedule()); err == nil {
		t.Error("ReorderedCopy accepted a self-consuming instruction")
	}
	rank := []float64{0, 1, 2}
	order, ref := PrioritySort(g, rank), refPrioritySort(g, rank)
	if !slices.Equal(order, []int{0}) || !slices.Equal(ref, order) {
		t.Errorf("PrioritySort = %v, reference %v, want [0]", order, ref)
	}
	if _, err := ReorderedCopy(g, order); err == nil {
		t.Error("ReorderedCopy accepted PrioritySort's short order")
	}
}

// Property: the bitset passes agree with their reference walks on random
// DAGs, for random source sets of up to 150 instructions (so rows span up
// to three words): Descendants holds exactly ReachableFrom plus the
// source itself, Ancestors exactly ReachableTo plus the source.
func TestReachMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(seed, 20+rng.Intn(180))
		var srcs []int
		for i := range g.Instrs {
			if rng.Intn(4) > 0 {
				srcs = append(srcs, i)
			}
		}
		srcs = srcs[:min(len(srcs), 150)]
		down, up := g.Descendants(srcs), g.Ancestors(srcs)
		for j, s := range srcs {
			from, to := reachableFrom(g, s), reachableTo(g, s)
			for i := range g.Instrs {
				if down.Has(i, j) != (from[i] || i == s) || up.Has(i, j) != (to[i] || i == s) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEmitNeverWritesItsInstruction pins that Emit only reads the
// instruction it appends (DESIGN.md §7): a freshly built instruction
// equals its copy after Emit, operands included, and two graphs may emit
// one instruction at once, which -race checks.
func TestEmitNeverWritesItsInstruction(t *testing.T) {
	fresh := func() *Instr {
		return &Instr{Name: "mm", Op: OpMatMul, Ins: []int{0, 1}, Outs: []int{2}}
	}
	graph := func() *Graph {
		g := NewGraph()
		g.NewTensor("x", Shape{4, 8}, F32, Activation)
		g.NewTensor("w", Shape{8, 8}, F32, Weight)
		g.NewTensor("y", Shape{4, 8}, F32, Activation)
		return g
	}
	in := fresh()
	want := *in
	want.Ins, want.Outs = slices.Clone(in.Ins), slices.Clone(in.Outs)
	graph().Emit(in)
	if !reflect.DeepEqual(*in, want) {
		t.Errorf("Emit wrote its instruction: %+v, built as %+v", *in, want)
	}

	in = fresh()
	var wg sync.WaitGroup
	for range 2 {
		g := graph()
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Emit(in)
		}()
	}
	wg.Wait()
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

// The dependency table is a dense slice indexed by tensor ID: IDs
// outside it read as graph inputs nobody consumes, emitting an
// instruction that names an unknown tensor must not panic, and Validate
// must still report that tensor.
func TestProducerConsumerTablesBoundsChecked(t *testing.T) {
	g, _ := buildDiamond(t)
	for _, id := range []int{-1, len(g.Tensors), 1 << 20} {
		if p := g.Producer(id); p != -1 {
			t.Errorf("Producer(%d) = %d, want -1", id, p)
		}
		if u := g.LastUse(id); u != -1 {
			t.Errorf("LastUse(%d) = %d, want -1", id, u)
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

// Property: on a randomly generated chain-with-branches DAG, independent
// is symmetric and mutually exclusive with reachability, and the bitset
// passes over every instruction agree with it: a pair is independent
// exactly when neither one's Descendants or Ancestors row holds the other.
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
		all := g.DefaultSchedule()
		down, up := g.Descendants(all), g.Ancestors(all)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if independent(g, a, b) != independent(g, b, a) {
					return false
				}
				reach := reachableFrom(g, a)[b] || reachableTo(g, a)[b]
				if reach == independent(g, a, b) {
					return false
				}
				if (down.Has(b, a) || up.Has(b, a)) != reach {
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
