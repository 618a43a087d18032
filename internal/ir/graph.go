package ir

import (
	"fmt"
	"sort"
	"sync"
)

// Graph is an SSA-style instruction-sequence program: an ordered list of
// instructions over a set of tensors. The list order is the default execution
// schedule; passes reorder and rewrite it.
type Graph struct {
	Tensors []*Tensor
	Instrs  []*Instr

	// producer and consumers are dense tables indexed by tensor ID:
	// producer[t] is the instruction producing tensor t (-1 for graph
	// inputs), consumers[t] the instructions reading it. Emit grows them
	// on demand, so tensors registered by assigning Tensors directly (as
	// the rewrites do) are covered too.
	producer  []int
	consumers [][]int

	// succs/preds are instruction-level adjacency, built lazily. adjMu
	// guards the build: construction and rewriting are single-goroutine,
	// but a finished graph is read by concurrent plans/simulations (e.g.
	// cmd/lancet -parallel shares one Session's graph across frameworks),
	// and the first reader must not race another on the lazy init.
	adjMu sync.Mutex
	succs [][]int
	preds [][]int
	dirty bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{dirty: true}
}

// NewTensor creates and registers a tensor.
func (g *Graph) NewTensor(name string, shape Shape, dt DType, kind TensorKind) *Tensor {
	t := &Tensor{ID: len(g.Tensors), Name: name, Shape: shape.Clone(), DType: dt, Kind: kind}
	g.Tensors = append(g.Tensors, t)
	return t
}

// Emit appends an instruction to the program. The instruction's ID is
// assigned; Group/SrcID default to -1 when unset.
func (g *Graph) Emit(in *Instr) *Instr {
	in.ID = len(g.Instrs)
	if in.Group == 0 && in.NumParts == 0 {
		in.Group = -1
		in.SrcID = -1
	}
	g.Instrs = append(g.Instrs, in)
	for _, o := range in.Outs {
		if o < 0 {
			continue // Validate reports the unknown tensor
		}
		g.cover(o)
		if prev := g.producer[o]; prev >= 0 {
			panic(fmt.Sprintf("ir: tensor %%%d has two producers: @%d and @%d", o, prev, in.ID))
		}
		g.producer[o] = in.ID
	}
	for _, x := range in.Ins {
		if x < 0 {
			continue
		}
		g.cover(x)
		g.consumers[x] = append(g.consumers[x], in.ID)
	}
	g.dirty = true
	return in
}

// cover grows the producer/consumer tables to cover tensor id, and at
// least every registered tensor so a rewrite's emits grow them once.
func (g *Graph) cover(id int) {
	if id < len(g.producer) {
		return
	}
	n := max(id+1, len(g.Tensors))
	for len(g.producer) < n {
		g.producer = append(g.producer, -1)
	}
	g.consumers = append(g.consumers, make([][]int, n-len(g.consumers))...)
}

// Tensor returns the tensor with the given ID.
func (g *Graph) Tensor(id int) *Tensor { return g.Tensors[id] }

// Instr returns the instruction with the given ID.
func (g *Graph) Instr(id int) *Instr { return g.Instrs[id] }

// Producer returns the instruction ID producing tensor id, or -1 for graph
// inputs (weights, input tokens).
func (g *Graph) Producer(id int) int {
	if id < 0 || id >= len(g.producer) {
		return -1
	}
	return g.producer[id]
}

// Consumers returns the instruction IDs consuming tensor id.
func (g *Graph) Consumers(id int) []int {
	if id < 0 || id >= len(g.consumers) {
		return nil
	}
	return g.consumers[id]
}

func (g *Graph) buildAdj() {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if !g.dirty {
		return
	}
	n := len(g.Instrs)
	g.succs = make([][]int, n)
	g.preds = make([][]int, n)
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= 0 {
				g.preds[in.ID] = append(g.preds[in.ID], p)
				g.succs[p] = append(g.succs[p], in.ID)
			}
		}
	}
	for i := range g.succs {
		g.succs[i] = dedup(g.succs[i])
		g.preds[i] = dedup(g.preds[i])
	}
	g.dirty = false
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
// instructions transitively reachable from id, excluding id itself.
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
// reachable, excluding id itself.
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
// gradient computation to overlap with an all-to-all.
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
// respecting data dependencies.
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
		for _, p := range g.Preds(in.ID) {
			if pos[p] > pos[in.ID] {
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
