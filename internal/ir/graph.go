package ir

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Graph is an SSA-style instruction-sequence program: an ordered list of
// instructions over a set of tensors. The list order is the default execution
// schedule; passes reorder and rewrite it.
//
// Tensors and the operand slices (Ins, Outs) of emitted instructions are
// immutable: rewrites share them with the graph they rewrite instead of
// copying them (DESIGN.md §2).
type Graph struct {
	Tensors []*Tensor
	Instrs  []*Instr

	// refs is the dependency table, dense and indexed by tensor ID: the
	// instruction producing each tensor and the last one consuming it.
	// Emit fills it and grows it on demand, so tensors registered by
	// appending to Tensors directly (as the rewrites do) are covered too.
	// Every per-plan reader — the simulator, the partition DP and rewrite,
	// the reachability passes — reads dependencies from here.
	refs []tensorRefs

	// consumers, succs and preds are CSR rows built once on first use, for
	// the readers that walk successors (PrioritySort, DOT export): each
	// relation is one flat array cut into capacity-capped slices, one per
	// tensor or instruction. Construction and rewriting are
	// single-goroutine, but a finished graph is read by concurrent plans
	// and simulations (cmd/lancet -parallel shares one Session's graph
	// across frameworks), so the build runs under adjMu and publishes
	// through the built flag; readers after it take no lock.
	adjMu     sync.Mutex
	built     atomic.Bool
	consumers [][]int
	succs     [][]int
	preds     [][]int
}

// tensorRefs is one tensor's entry in the dependency table: the
// instruction producing it (-1 for graph inputs) and the last instruction
// consuming it (-1 when none does). Every rewrite fills a fresh table, so
// int32s keep an entry at 8 bytes.
type tensorRefs struct {
	producer, lastUse int32
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// Derive starts a rewrite of g: a graph sharing g's tensors — a copy of
// the pointer table, with room for extraTensors more — with room for
// instrs instructions and none emitted yet.
func Derive(g *Graph, extraTensors, instrs int) *Graph {
	ng := &Graph{
		Tensors: make([]*Tensor, len(g.Tensors), len(g.Tensors)+extraTensors),
		Instrs:  make([]*Instr, 0, instrs),
		refs:    make([]tensorRefs, len(g.Tensors), len(g.Tensors)+extraTensors),
	}
	copy(ng.Tensors, g.Tensors)
	for i := range ng.refs {
		ng.refs[i] = tensorRefs{-1, -1}
	}
	return ng
}

// NewTensor creates and registers a tensor.
func (g *Graph) NewTensor(name string, shape Shape, dt DType, kind TensorKind) *Tensor {
	t := &Tensor{ID: len(g.Tensors), Name: name, Shape: shape.Clone(), DType: dt, Kind: kind}
	g.Tensors = append(g.Tensors, t)
	return t
}

// Emit appends an instruction to the program and records it in the
// dependency table: as the producer of its outputs and, since it is the
// latest instruction, as the last use of its registered inputs. The
// instruction's ID is assigned; Group/SrcID default to -1 when unset.
func (g *Graph) Emit(in *Instr) *Instr {
	in.ID = len(g.Instrs)
	if in.Group == 0 && in.NumParts == 0 {
		in.Group = -1
		in.SrcID = -1
	}
	g.Instrs = append(g.Instrs, in)
	for _, x := range in.Ins {
		if x < 0 || x >= len(g.Tensors) {
			continue // Validate reports the unknown tensor
		}
		g.cover(x)
		g.refs[x].lastUse = int32(in.ID)
	}
	for _, o := range in.Outs {
		if o < 0 {
			continue // Validate reports the unknown tensor
		}
		g.cover(o)
		if prev := g.refs[o].producer; prev >= 0 {
			panic(fmt.Sprintf("ir: tensor %%%d has two producers: @%d and @%d", o, prev, in.ID))
		}
		g.refs[o].producer = int32(in.ID)
	}
	g.built.Store(false)
	return in
}

// cover grows the dependency table to cover tensor id, and at least every
// registered tensor so a rewrite's emits grow it once.
func (g *Graph) cover(id int) {
	if id < len(g.refs) {
		return
	}
	n := max(id+1, len(g.Tensors))
	for len(g.refs) < n {
		g.refs = append(g.refs, tensorRefs{-1, -1})
	}
}

// Tensor returns the tensor with the given ID.
func (g *Graph) Tensor(id int) *Tensor { return g.Tensors[id] }

// Instr returns the instruction with the given ID.
func (g *Graph) Instr(id int) *Instr { return g.Instrs[id] }

// Producer returns the instruction ID producing tensor id, or -1 for graph
// inputs (weights, input tokens).
func (g *Graph) Producer(id int) int {
	if id < 0 || id >= len(g.refs) {
		return -1
	}
	return int(g.refs[id].producer)
}

// LastUse returns the last instruction ID consuming tensor id, or -1 when
// no instruction does: the largest of Consumers(id), without building the
// consumer rows.
func (g *Graph) LastUse(id int) int {
	if id < 0 || id >= len(g.refs) {
		return -1
	}
	return int(g.refs[id].lastUse)
}

// Consumers returns the instruction IDs consuming tensor id, in program
// order, once per operand that reads it.
func (g *Graph) Consumers(id int) []int {
	g.buildAdj()
	if id < 0 || id >= len(g.consumers) {
		return nil
	}
	return g.consumers[id]
}

// buildAdj builds the consumer and instruction adjacency rows if an Emit
// has invalidated them (or they were never built).
func (g *Graph) buildAdj() {
	if g.built.Load() {
		return
	}
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if g.built.Load() {
		return
	}
	n := len(g.Instrs)
	nt := max(len(g.Tensors), len(g.refs))
	operands := 0
	for _, in := range g.Instrs {
		operands += len(in.Ins)
	}

	// Consumers: one entry per operand, rows in tensor-ID order, each row
	// in program order. preds[i] is the sorted distinct producers of
	// instruction i's inputs; succs falls out of preds in ascending order
	// by walking the instructions in order. The three share one array.
	flat := make([]int, 0, 3*operands)
	count := make([]int, max(nt, n)+1)
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if x >= 0 && x < nt {
				count[x+1]++
			}
		}
	}
	g.consumers = make([][]int, nt)
	for t := range g.consumers {
		count[t+1] += count[t]
	}
	flat = flat[:count[nt]]
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if x >= 0 && x < nt {
				flat[count[x]] = in.ID
				count[x]++
			}
		}
	}
	for t, lo := 0, 0; t < nt; t++ {
		g.consumers[t] = flat[lo:count[t]:count[t]]
		lo = count[t]
	}

	g.preds = make([][]int, n)
	clear(count)
	for i, in := range g.Instrs {
		lo := len(flat)
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= 0 {
				flat = append(flat, p)
			}
		}
		row := flat[lo:]
		slices.Sort(row)
		row = slices.Compact(row)
		flat = flat[:lo+len(row)]
		g.preds[i] = flat[lo:len(flat):len(flat)]
		for _, p := range row {
			count[p+1]++
		}
	}
	g.succs = make([][]int, n)
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	base := len(flat)
	flat = flat[:base+count[n]]
	for i, row := range g.preds {
		for _, p := range row {
			flat[base+count[p]] = i
			count[p]++
		}
	}
	for i, lo := 0, base; i < n; i++ {
		g.succs[i] = flat[lo : base+count[i] : base+count[i]]
		lo = base + count[i]
	}
	g.built.Store(true)
}

// Succs returns the instructions directly depending on instruction id.
func (g *Graph) Succs(id int) []int {
	g.buildAdj()
	return g.succs[id]
}

// Preds returns the instructions instruction id directly depends on.
func (g *Graph) Preds(id int) []int {
	g.buildAdj()
	return g.preds[id]
}

// ReachableFrom returns the set (as a bitmap indexed by instruction ID) of
// instructions transitively reachable from id, excluding id itself. It
// walks the CSR rows, and is the reference Descendants is tested against.
func (g *Graph) ReachableFrom(id int) []bool {
	g.buildAdj()
	seen := make([]bool, len(g.Instrs))
	stack := append([]int(nil), g.succs[id]...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, g.succs[cur]...)
	}
	return seen
}

// ReachableTo returns the set of instructions from which id is transitively
// reachable, excluding id itself: the reference for Ancestors.
func (g *Graph) ReachableTo(id int) []bool {
	g.buildAdj()
	seen := make([]bool, len(g.Instrs))
	stack := append([]int(nil), g.preds[id]...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, g.preds[cur]...)
	}
	return seen
}

// Independent reports whether no directed path exists between instructions a
// and b in either direction — the paper's condition (Sec. 4.1) for a weight
// gradient computation to overlap with an all-to-all. The passes test it
// for many pairs at once with Descendants and Ancestors.
func (g *Graph) Independent(a, b int) bool {
	if a == b {
		return false
	}
	from := g.ReachableFrom(a)
	if from[b] {
		return false
	}
	to := g.ReachableTo(a)
	return !to[b]
}

// Validate checks the structural invariants: instruction IDs match their
// positions, every consumed tensor exists, and the program order is a valid
// topological order (each instruction appears after all its producers).
func (g *Graph) Validate() error {
	for i, in := range g.Instrs {
		if in.ID != i {
			return fmt.Errorf("ir: instruction at position %d has ID %d", i, in.ID)
		}
		for _, x := range in.Ins {
			if x < 0 || x >= len(g.Tensors) {
				return fmt.Errorf("ir: @%d consumes unknown tensor %%%d", in.ID, x)
			}
			if p := g.Producer(x); p >= i {
				return fmt.Errorf("ir: @%d consumes %%%d produced later by @%d", in.ID, x, p)
			}
		}
		for _, y := range in.Outs {
			if y < 0 || y >= len(g.Tensors) {
				return fmt.Errorf("ir: @%d produces unknown tensor %%%d", in.ID, y)
			}
		}
	}
	return nil
}

// ValidateSchedule checks that order is a permutation of all instruction IDs
// that places the producer of every operand strictly before its consumer,
// so an instruction reading its own output is rejected.
func (g *Graph) ValidateSchedule(order []int) error {
	if len(order) != len(g.Instrs) {
		return fmt.Errorf("ir: schedule has %d entries, graph has %d instructions", len(order), len(g.Instrs))
	}
	pos := make([]int, len(g.Instrs))
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range order {
		if id < 0 || id >= len(g.Instrs) {
			return fmt.Errorf("ir: schedule entry %d out of range", id)
		}
		if pos[id] != -1 {
			return fmt.Errorf("ir: instruction @%d scheduled twice", id)
		}
		pos[id] = p
	}
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			p := g.Producer(x)
			switch {
			case p < 0:
			case p == in.ID:
				return fmt.Errorf("ir: @%d consumes its own output %%%d", in.ID, x)
			case pos[p] > pos[in.ID]:
				return fmt.Errorf("ir: @%d scheduled before its dependency @%d", in.ID, p)
			}
		}
	}
	return nil
}

// DefaultSchedule returns the program-order schedule [0, 1, ..., N-1].
func (g *Graph) DefaultSchedule() []int {
	order := make([]int, len(g.Instrs))
	for i := range order {
		order[i] = i
	}
	return order
}

// AllToAlls returns the IDs of all all-to-all instructions in program order.
func (g *Graph) AllToAlls() []int {
	var ids []int
	for _, in := range g.Instrs {
		if in.Op == OpAllToAll {
			ids = append(ids, in.ID)
		}
	}
	return ids
}

// Stats summarizes a graph for reporting and tests.
type Stats struct {
	Instrs      int
	CommInstrs  int
	DWInstrs    int
	TotalFLOPs  float64
	CommBytes   int64
	WeightBytes int64
}

// ComputeStats walks the graph once and aggregates counters.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.Instrs = len(g.Instrs)
	for _, in := range g.Instrs {
		if in.IsComm() {
			s.CommInstrs++
			s.CommBytes += in.Bytes
		}
		if in.IsDW() {
			s.DWInstrs++
		}
		s.TotalFLOPs += in.FLOPs
	}
	for _, t := range g.Tensors {
		if t.Kind == Weight {
			s.WeightBytes += t.Bytes()
		}
	}
	return s
}
