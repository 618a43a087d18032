package ir

// Reach relates every instruction to a list of source instructions by
// directed paths, one bitset row of ⌈len(srcs)/64⌉ words per instruction.
// Descendants and Ancestors build it in one pass over the dependency
// table each, where ReachableFrom and ReachableTo, their reference, walk
// the table depth-first once per source.
type Reach struct {
	words int
	rows  []uint64
}

// Has reports whether instruction id's row holds source j: a path joins
// srcs[j] and id in the direction of the pass that built r, or id is
// srcs[j] itself.
func (r Reach) Has(id, j int) bool {
	return r.rows[id*r.words+j>>6]>>(j&63)&1 != 0
}

func (r Reach) row(id int) []uint64 {
	return r.rows[id*r.words : (id+1)*r.words]
}

// newReach returns n rows over srcs with each source's own bit set.
func newReach(n int, srcs []int) Reach {
	r := Reach{words: (len(srcs) + 63) / 64}
	r.rows = make([]uint64, n*r.words)
	for j, s := range srcs {
		r.rows[s*r.words+j>>6] |= 1 << (j & 63)
	}
	return r
}

// Descendants labels every instruction with the sources it is reachable
// from: row id holds j when a path leads from srcs[j] to id. One forward
// pass in program order ORs each operand producer's row into its
// consumer's. Program order must be topological (Validate), so every
// producer's row is final before a consumer reads it.
func (g *Graph) Descendants(srcs []int) Reach {
	r := newReach(len(g.Instrs), srcs)
	for i, in := range g.Instrs {
		row := r.row(i)
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= 0 {
				for w, bits := range r.row(p) {
					row[w] |= bits
				}
			}
		}
	}
	return r
}

// Ancestors labels every instruction with the sources it reaches: row id
// holds j when a path leads from id to srcs[j]. One backward pass in
// reverse program order ORs each consumer's row into its operands'
// producers. Program order must be topological (Validate), so every
// consumer of an instruction has pushed its row before that row is read.
func (g *Graph) Ancestors(srcs []int) Reach {
	r := newReach(len(g.Instrs), srcs)
	for i := len(g.Instrs) - 1; i >= 0; i-- {
		row := r.row(i)
		for _, x := range g.Instrs[i].Ins {
			if p := g.Producer(x); p >= 0 {
				dst := r.row(p)
				for w, bits := range row {
					dst[w] |= bits
				}
			}
		}
	}
	return r
}
