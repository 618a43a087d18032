package ir

// PrioritySort emits a dependency-respecting instruction order that
// greedily follows the given per-instruction ranks (Kahn's algorithm with a
// min-heap): whenever several instructions are ready, the lowest-ranked one
// issues first. Passes use it to express placement intent — move a dW right
// after its all-to-all, push gradient all-reduces behind all-to-alls —
// while dependencies always win.
//
// The in-degrees and successor lists come from the operands' producers, in
// one pass and one allocation. Each operand edge gets a 1-based ID e:
// succ[e-1] is its consumer and next[e-1] the ID of its producer's next
// edge, head[p] is the ID of producer p's first edge, and ID 0 ends a
// list. An instruction reading a tensor twice is counted and listed twice,
// which releases it at the same pop as one edge would; the heap pops by
// (rank, ID), so the order successors are listed in does not matter
// either.
func PrioritySort(g *Graph, rank []float64) []int {
	n := len(g.Instrs)
	operands := 0
	for _, in := range g.Instrs {
		operands += len(in.Ins)
	}
	buf := make([]int32, 2*n+2*operands)
	indeg, head := buf[:n], buf[n:2*n]
	succ, next := buf[2*n:2*n+operands], buf[2*n+operands:]
	edges := int32(0)
	for i, in := range g.Instrs {
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= 0 {
				indeg[i]++
				succ[edges] = int32(i)
				next[edges] = head[p]
				edges++
				head[p] = edges
			}
		}
	}
	h := &rankHeap{rank: rank}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			h.push(i)
		}
	}
	order := make([]int, 0, n)
	for h.Len() > 0 {
		cur := h.pop()
		order = append(order, cur)
		for e := head[cur]; e != 0; e = next[e-1] {
			s := succ[e-1]
			indeg[s]--
			if indeg[s] == 0 {
				h.push(int(s))
			}
		}
	}
	return order
}

type rankHeap struct {
	ids  []int
	rank []float64
}

func (h *rankHeap) Len() int { return len(h.ids) }

func (h *rankHeap) less(i, j int) bool {
	if h.rank[h.ids[i]] != h.rank[h.ids[j]] {
		return h.rank[h.ids[i]] < h.rank[h.ids[j]]
	}
	return h.ids[i] < h.ids[j]
}

func (h *rankHeap) push(id int) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(p, i) {
			break
		}
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		i = p
	}
}

func (h *rankHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ids) && h.less(l, small) {
			small = l
		}
		if r < len(h.ids) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.ids[i], h.ids[small] = h.ids[small], h.ids[i]
		i = small
	}
	return top
}
