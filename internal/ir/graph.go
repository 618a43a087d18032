package ir

import "fmt"

// Graph is an SSA-style instruction-sequence program: an ordered list of
// instructions over a set of tensors. The list order is the default execution
// schedule; passes reorder and rewrite it.
//
// An instruction's ID is its position in Instrs. Tensors and emitted
// instructions, operand slices (Ins, Outs) included, are immutable:
// rewrites share them with the graph they rewrite instead of copying them,
// and a caller that edits an instruction edits a copy of its own
// (DESIGN.md §2, §7).
type Graph struct {
	Tensors []*Tensor
	Instrs  []*Instr

	// refs is the dependency table, dense and indexed by tensor ID: the
	// instruction producing each tensor and the last one consuming it.
	// Emit fills it and grows it on demand, so tensors registered by
	// appending to Tensors directly (as the rewrites do) are covered too.
	// It is the graph's only record of its edges: every reader — the
	// simulator, the partition DP and rewrite, the reachability passes,
	// PrioritySort — reads dependencies from here.
	refs []tensorRefs
}

// tensorRefs is one tensor's entry in the dependency table: the
// instruction producing it (-1 for graph inputs) and the last instruction
// consuming it (-1 when none does). Every rewrite fills a table of its
// own, so int32s keep an entry at 8 bytes.
type tensorRefs struct {
	producer, lastUse int32
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// Derive starts a rewrite of g: a graph sharing g's tensors — a copy of
// the pointer table, with room for extraTensors more — with room for
// instrs instructions and none emitted yet. The rewrite is into when into
// is non-nil: Derive resets it, keeping each table's storage that has the
// room and allocating exactly the room for one that has not, so a caller
// can start a rewrite on a dead one's tables. A nil into allocates a new
// graph.
func Derive(g *Graph, extraTensors, instrs int, into *Graph) *Graph {
	if into == nil {
		into = new(Graph)
	}
	nt := len(g.Tensors)
	into.Tensors = reserve(into.Tensors, nt, nt+extraTensors)
	into.Instrs = reserve(into.Instrs, 0, instrs)
	into.refs = reserve(into.refs, nt, nt+extraTensors)
	copy(into.Tensors, g.Tensors)
	for i := range into.refs {
		into.refs[i] = tensorRefs{-1, -1}
	}
	return into
}

// reserve returns s at length n with room for c entries: on s's own
// storage when it has the room, on a new array of exactly c otherwise.
// Entries are unspecified; Derive overwrites them.
func reserve[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	return s[:n]
}

// NewTensor creates and registers a tensor.
func (g *Graph) NewTensor(name string, shape Shape, dt DType, kind TensorKind) *Tensor {
	t := &Tensor{ID: len(g.Tensors), Name: name, Shape: shape.Clone(), DType: dt, Kind: kind}
	g.Tensors = append(g.Tensors, t)
	return t
}

// Emit appends an instruction to the program and records it in the
// dependency table: as the producer of its outputs and, since it is the
// latest instruction, as the last use of its registered inputs. It returns
// the instruction's position, which is its ID: nothing else names it.
// Emit only reads in, so the graphs that share an instruction may emit it
// concurrently (DESIGN.md §7).
func (g *Graph) Emit(in *Instr) int {
	id := len(g.Instrs)
	g.Instrs = append(g.Instrs, in)
	for _, x := range in.Ins {
		if x < 0 || x >= len(g.Tensors) {
			continue // Validate reports the unknown tensor
		}
		g.cover(x)
		g.refs[x].lastUse = int32(id)
	}
	for _, o := range in.Outs {
		if o < 0 {
			continue // Validate reports the unknown tensor
		}
		g.cover(o)
		if prev := g.refs[o].producer; prev >= 0 {
			panic(fmt.Sprintf("ir: tensor %%%d has two producers: @%d and @%d", o, prev, id))
		}
		g.refs[o].producer = int32(id)
	}
	return id
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
// no instruction does.
func (g *Graph) LastUse(id int) int {
	if id < 0 || id >= len(g.refs) {
		return -1
	}
	return int(g.refs[id].lastUse)
}

// Validate checks the structural invariants: every consumed tensor exists,
// and the program order is a valid topological order (each instruction
// appears after all its producers). An instruction's ID is its position,
// so there is no ID to check against it.
func (g *Graph) Validate() error {
	for i, in := range g.Instrs {
		for _, x := range in.Ins {
			if x < 0 || x >= len(g.Tensors) {
				return fmt.Errorf("ir: @%d consumes unknown tensor %%%d", i, x)
			}
			if p := g.Producer(x); p >= i {
				return fmt.Errorf("ir: @%d consumes %%%d produced later by @%d", i, x, p)
			}
		}
		for _, y := range in.Outs {
			if y < 0 || y >= len(g.Tensors) {
				return fmt.Errorf("ir: @%d produces unknown tensor %%%d", i, y)
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
	for i, in := range g.Instrs {
		for _, x := range in.Ins {
			p := g.Producer(x)
			switch {
			case p < 0:
			case p == i:
				return fmt.Errorf("ir: @%d consumes its own output %%%d", i, x)
			case pos[p] > pos[i]:
				return fmt.Errorf("ir: @%d scheduled before its dependency @%d", i, p)
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
	for i, in := range g.Instrs {
		if in.Op == OpAllToAll {
			ids = append(ids, i)
		}
	}
	return ids
}
