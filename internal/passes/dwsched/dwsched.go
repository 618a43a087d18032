// Package dwsched implements Lancet's weight gradient computation schedule
// pass (paper Sec. 4, Algorithm 1). It labels the weight-gradient (dW)
// instructions that may legally overlap each all-to-all (no directed path in
// either direction, Sec. 4.1), assigns dW ops to all-to-alls with a best-fit
// greedy heuristic for the NP-hard generalized assignment problem
// (Sec. 4.2), and reorders the instruction sequence so each chosen dW op
// launches immediately after its all-to-all. DESIGN.md §4 places it among
// the optimization passes.
package dwsched

import (
	"math"
	"sort"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// Strategy selects how dW ops are matched to all-to-alls.
type Strategy int

const (
	// BestFit repeatedly picks the candidate minimizing |remaining - t_dW|
	// (the paper's heuristic).
	BestFit Strategy = iota
	// FirstFit takes candidates in program order; used as the ablation
	// baseline for the best-fit design choice.
	FirstFit
)

// Result reports what the pass did.
type Result struct {
	// Graph is the rewritten program whose order embeds the schedule.
	Graph *ir.Graph
	// Assignments maps dW instruction ID -> all-to-all instruction ID
	// (positions in the input graph).
	Assignments map[int]int
	// OverlappedUs is the predicted total all-to-all time covered by
	// scheduled dW computation.
	OverlappedUs float64
	// A2ATotalUs is the predicted total time of the targeted all-to-alls.
	A2ATotalUs float64
}

// Options configures the pass.
type Options struct {
	Strategy Strategy
}

// Run executes the pass on g and returns the rewritten graph.
func Run(g *ir.Graph, cm *cost.Model, opts Options) (*Result, error) {
	res := &Result{Assignments: make(map[int]int)}

	// ---- Labelling (Sec. 4.1) ----
	a2as := g.AllToAlls()
	var dws []int
	for i, in := range g.Instrs {
		if in.IsDW() {
			dws = append(dws, i)
		}
	}
	overlappable := label(g, a2as, dws)

	// ---- Scheduling (Sec. 4.2, Algorithm 1) ----
	// Candidates are instruction positions, which are dense, so their
	// durations and used marks are slices indexed by position.
	tW := make([]float64, len(g.Instrs))
	for _, w := range dws {
		tW[w] = cm.PredictInstr(g.Instr(w))
	}
	used := make([]bool, len(g.Instrs))
	for j, a := range a2as {
		cands := overlappable[j]
		if len(cands) == 0 {
			continue
		}
		ta := cm.PredictInstr(g.Instr(a))
		res.A2ATotalUs += ta
		tu := ta // unoverlapped time remaining
		filled := 0.0
		for tu > 0 {
			j := pick(cands, used, tW, tu, opts.Strategy)
			if j < 0 {
				break
			}
			used[j] = true
			res.Assignments[j] = a
			filled += tW[j]
			tu -= tW[j]
		}
		res.OverlappedUs += math.Min(ta, filled)
	}

	// ---- Reordering ----
	// Desired position: unmoved instructions keep their index; an assigned
	// dW slots immediately after its all-to-all. Consumers of a moved dW
	// (gradient all-reduce, optimizer) may sit before the new slot in
	// program order, so the final order is produced by a priority-driven
	// topological sort: desired positions guide, dependencies always win.
	rank := make([]float64, len(g.Instrs))
	for i := range rank {
		rank[i] = float64(i)
	}
	byA2A := make(map[int][]int, len(a2as))
	for w, a := range res.Assignments {
		byA2A[a] = append(byA2A[a], w)
	}
	for a, ws := range byA2A {
		sort.Ints(ws)
		for i, w := range ws {
			rank[w] = float64(a) + float64(i+1)/float64(len(ws)+1)
		}
	}
	order := ir.PrioritySort(g, rank)
	ng, err := ir.ReorderedCopy(g, order)
	if err != nil {
		return nil, err
	}
	res.Graph = ng
	return res, nil
}

// label computes W_Ia for each all-to-all a2as[j]: the dW instructions
// with no directed path to or from it, in program order. One forward and
// one backward bitset pass over the dependency table label every
// instruction with the all-to-alls it depends on and those it feeds.
func label(g *ir.Graph, a2as, dws []int) [][]int {
	down, up := g.Descendants(a2as), g.Ancestors(a2as)
	overlappable := make([][]int, len(a2as))
	for j := range a2as {
		for _, w := range dws {
			if !down.Has(w, j) && !up.Has(w, j) {
				overlappable[j] = append(overlappable[j], w)
			}
		}
	}
	return overlappable
}

// pick selects the next dW candidate per the strategy, or -1 if none remain.
// used and tW are indexed by instruction position.
func pick(cands []int, used []bool, tW []float64, tu float64, s Strategy) int {
	best, bestDiff := -1, math.Inf(1)
	for _, j := range cands {
		if used[j] {
			continue
		}
		if s == FirstFit {
			return j
		}
		if d := math.Abs(tu - tW[j]); d < bestDiff {
			best, bestDiff = j, d
		}
	}
	return best
}
