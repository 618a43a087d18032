// Package commprio implements the all-to-all prioritization the paper
// discusses as a complementary optimization (Sec. 8, citing Lina, Li et
// al. ATC'23): gradient all-reduce traffic shares the communication stream
// with MoE all-to-alls, and an all-reduce enqueued between two backward
// all-to-alls delays the activation-gradient critical path. The pass
// deprioritizes all-reduces — each one is pushed behind the last backward
// all-to-all it is independent of — eliminating the head-of-line blocking
// without starving gradient synchronization. DESIGN.md §4 places it among
// the optimization passes.
package commprio

import (
	"lancet/internal/ir"
)

// Result reports the pass outcome.
type Result struct {
	// Graph is the rewritten program whose order embeds the schedule.
	Graph *ir.Graph
	// Moved counts all-reduce instructions that were deprioritized.
	Moved int
}

// Run pushes every all-reduce behind the last all-to-all that does not
// depend on it, preserving all data dependencies.
func Run(g *ir.Graph) (*Result, error) {
	res := &Result{}
	a2as := g.AllToAlls()
	if len(a2as) == 0 {
		res.Graph = g
		return res, nil
	}
	lastA2A := a2as[len(a2as)-1]

	rank := make([]float64, len(g.Instrs))
	var ars []int
	for _, in := range g.Instrs {
		rank[in.ID] = float64(in.ID)
		if in.Op == ir.OpAllReduce && in.ID < lastA2A {
			ars = append(ars, in.ID)
		}
	}
	// One forward bitset pass labels every all-to-all with the all-reduces
	// it depends on.
	down := g.Descendants(ars)
	for j, r := range ars {
		// Slot the all-reduce right after the next all-to-all it would
		// otherwise head-of-line block. Minimal displacement: the
		// all-reduce stays early enough to overlap remaining backward
		// compute instead of piling into an unoverlapped tail.
		target := -1
		for _, a := range a2as {
			if a > r && !down.Has(a, j) {
				target = a
				break
			}
		}
		if target == -1 {
			continue
		}
		rank[r] = float64(target) + 0.5 + float64(r)*1e-6
		res.Moved++
	}
	order := ir.PrioritySort(g, rank)
	ng, err := ir.ReorderedCopy(g, order)
	if err != nil {
		return nil, err
	}
	res.Graph = ng
	return res, nil
}
