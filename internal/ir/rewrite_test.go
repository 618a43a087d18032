package ir

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomDAG builds a layered random graph with n ops.
func randomDAG(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	tensors := []*Tensor{g.NewTensor("in", Shape{2}, F32, Activation)}
	for i := 0; i < n; i++ {
		nIns := 1 + rng.Intn(2)
		ins := make([]int, 0, nIns)
		for j := 0; j < nIns; j++ {
			ins = append(ins, tensors[rng.Intn(len(tensors))].ID)
		}
		out := g.NewTensor("t", Shape{2}, F32, Activation)
		g.Emit(&Instr{Op: OpGeLU, Ins: ins, Outs: []int{out.ID}})
		tensors = append(tensors, out)
	}
	return g
}

func TestReorderedCopyPreservesStructure(t *testing.T) {
	g := randomDAG(1, 20)
	// Reverse-priority order: maximally shuffled but legal.
	rank := make([]float64, len(g.Instrs))
	for i := range rank {
		rank[i] = float64(len(rank) - i)
	}
	order := PrioritySort(g, rank)
	ng, err := ReorderedCopy(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("copy invalid: %v", err)
	}
	if len(ng.Instrs) != len(g.Instrs) || len(ng.Tensors) != len(g.Tensors) {
		t.Fatal("copy changed sizes")
	}
	// Per-instruction dataflow is preserved: instr at position i of the
	// copy is the original order[i] with identical tensor references.
	for i, id := range order {
		a, b := g.Instr(id), ng.Instr(i)
		if a.Op != b.Op || len(a.Ins) != len(b.Ins) {
			t.Fatalf("position %d: op mismatch", i)
		}
		for j := range a.Ins {
			if a.Ins[j] != b.Ins[j] {
				t.Fatalf("position %d: input tensor changed", i)
			}
		}
	}
	// Sharing contract (DESIGN.md §2): the copy holds the input's tensors,
	// and its instructions are its own, so editing a copied instruction's
	// scalar fields leaves the input's unchanged.
	for i, tt := range g.Tensors {
		if ng.Tensors[i] != tt {
			t.Fatalf("tensor %%%d was cloned, want the input's *Tensor", i)
		}
	}
	for i, id := range order {
		before := g.Instr(id).Bytes
		ng.Instr(i).Bytes = before + 7
		if g.Instr(id).Bytes != before {
			t.Fatalf("writing the copy's @%d Bytes changed the input's @%d", i, id)
		}
	}
}

func TestReorderedCopyRejectsBadOrder(t *testing.T) {
	g := randomDAG(2, 8)
	bad := g.DefaultSchedule()
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if _, err := ReorderedCopy(g, bad); err == nil {
		// The swap might coincidentally be legal for some DAGs; force an
		// unambiguous violation.
		if _, err := ReorderedCopy(g, bad[:2]); err == nil {
			t.Error("short schedule accepted")
		}
	}
}

// Property: PrioritySort always yields a valid schedule on random DAGs with
// random ranks.
func TestPrioritySortAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, rankSeed int64) bool {
		g := randomDAG(seed, 15+int(uint64(seed)%20))
		rng := rand.New(rand.NewSource(rankSeed))
		rank := make([]float64, len(g.Instrs))
		for i := range rank {
			rank[i] = rng.Float64() * 100
		}
		order := PrioritySort(g, rank)
		return g.ValidateSchedule(order) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: ReorderedCopy of a valid PrioritySort order revalidates and
// preserves instruction multiset.
func TestReorderedCopyProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 12)
		rank := make([]float64, len(g.Instrs))
		rng := rand.New(rand.NewSource(seed + 1))
		for i := range rank {
			rank[i] = rng.Float64()
		}
		ng, err := ReorderedCopy(g, PrioritySort(g, rank))
		if err != nil {
			return false
		}
		return ng.Validate() == nil && len(ng.Instrs) == len(g.Instrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refPrioritySort is Kahn's walk over referenceAdj's distinct preds and
// succs with PrioritySort's (rank, ID) heap: the reference PrioritySort,
// which counts and lists one edge per operand, is checked against.
func refPrioritySort(g *Graph, rank []float64) []int {
	preds, succs, _ := referenceAdj(g)
	indeg := make([]int, len(g.Instrs))
	h := &rankHeap{rank: rank}
	for i := range g.Instrs {
		indeg[i] = len(preds[i])
		if indeg[i] == 0 {
			h.push(i)
		}
	}
	var order []int
	for h.Len() > 0 {
		cur := h.pop()
		order = append(order, cur)
		for _, s := range succs[cur] {
			indeg[s]--
			if indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	return order
}

// Property: on random DAGs, whose instructions may read one tensor twice,
// and with random ranks drawn from a few values so ties are common,
// PrioritySort's order equals the reference walk's.
func TestPrioritySortMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, rankSeed int64) bool {
		g := randomDAG(seed, 5+int(uint64(seed)%60))
		rng := rand.New(rand.NewSource(rankSeed))
		rank := make([]float64, len(g.Instrs))
		for i := range rank {
			rank[i] = float64(rng.Intn(6))
		}
		return slices.Equal(PrioritySort(g, rank), refPrioritySort(g, rank))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
