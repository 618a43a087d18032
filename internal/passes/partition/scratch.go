package partition

import (
	"sync"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// Everything here backs the DP inner loop: zero steady-state
// allocations (DESIGN.md §13), with pool warm-up confined to grow.
//
//lancet:hotpath

// dpScratch is the reusable working set of one partition-pass DP sweep
// (DESIGN.md §13): the prefix/DP tables, the per-window dependency and stage
// indexes, and the flat end-time matrix of the pipeline simulation. All of
// it is borrowed from a sync.Pool and grown monotonically, so the DP inner
// loop — durations, clock simulation, boundary costs — allocates nothing in
// steady state. Window-local lookups (instruction position, produced/seen
// tensor marks) are generation-stamped arrays indexed by instruction or
// tensor ID instead of per-window maps: bumping the generation invalidates
// every stale entry in O(1).
type dpScratch struct {
	// DP tables (Run).
	prefix []float64
	bounds []int
	T      []float64
	best   []choice

	// Window index (prepareWindow): position of each window instruction by
	// ID, window-local dependency edges as depBuf[depOff[i]:depOff[i+1]],
	// and the stages (see stageOf): stage s covers the contiguous positions
	// [stOff[s], stOff[s+1]) and runs on stream stStream[s].
	posOf    []int
	posGen   []uint64
	depOff   []int
	depBuf   []int
	stOff    []int
	stStream []int
	winGen   uint64

	// Axis solution (solveAxes): the axis of each tensor by ID, stamped
	// with solveGen; the trail of bound tensor IDs in binding order; and,
	// per search depth, the next combination to try and the trail length
	// on entry.
	axis     []Axis
	axisGen  []uint64
	solveGen uint64
	trail    []int
	comboAt  []int
	trailAt  []int

	// Pipeline simulation (pipelineSpan): per-position micro durations and
	// the flat end-time matrix indexed pos*k+part.
	durs []float64
	end  []float64

	// Sweep-level duration memo: instanceDur depends only on the
	// instruction and k (the pricer, model and payload fraction are fixed
	// for a whole DP sweep), and overlapping candidate windows revisit the
	// same instructions at every k. One slot per (instruction ID, k),
	// indexed ID*durStride+k and stamped with durGen.
	durMemo    []float64
	durMemoGen []uint64
	durStride  int
	durGen     uint64

	// Per-window (k → pipelined cost) memo, stamped with winGen: the
	// warm-start probe and the full-sweep fallback share evaluations of the
	// same candidate, so a window never prices one k twice (DESIGN.md §14).
	kCost    []float64
	kCostGen []uint64

	// Boundary-cost marks (boundaryCostUs), stamped with markGen.
	insideI []uint64
	prodT   []uint64
	seenT   []uint64
	markGen uint64

	// tmp is the scratch instruction micro-partition and reconstruct
	// pricing hand to the cost model instead of allocating a copy per
	// candidate.
	tmp ir.Instr
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

func getScratch() *dpScratch { return dpPool.Get().(*dpScratch) }

func putScratch(sc *dpScratch) { dpPool.Put(sc) }

// grow returns a slice of length n backed by s when it has the capacity,
// or a fresh allocation otherwise (only until the pool warms up to the
// largest graph). Contents are unspecified; callers overwrite or stamp.
//
//lancet:alloc-ok
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// beginDurMemo opens a fresh duration-memo generation covering instruction
// IDs below nInstrs and partition counts up to kmax. Must be called before
// pipelineSpan whenever the pricing inputs (model, pricer, payload
// fraction) may have changed.
func (sc *dpScratch) beginDurMemo(nInstrs, kmax int) {
	sc.durStride = kmax + 1
	n := nInstrs * sc.durStride
	sc.durMemo = grow(sc.durMemo, n)
	sc.durMemoGen = grow(sc.durMemoGen, n)
	sc.durGen++
}

// beginWindowCosts sizes the per-window (k → cost) memo for partition
// counts up to kmax. Entries are invalidated per window by the winGen bump
// in prepareWindow.
func (sc *dpScratch) beginWindowCosts(kmax int) {
	sc.kCost = grow(sc.kCost, kmax+1)
	sc.kCostGen = grow(sc.kCostGen, kmax+1)
}

// windowCost prices the prepared window partitioned k ways (pipelineSpan
// plus the hoisted k-independent boundary cost) through the per-window
// memo. fresh reports whether a pipelineSpan evaluation actually ran — the
// quantity Run's Evaluations counter tracks — so the warm-start probe and
// the full-sweep fallback never price or count the same candidate twice.
func (sc *dpScratch) windowCost(cm *cost.Model, window []*ir.Instr, k int, pr cost.A2APricer, frac, boundary float64) (p float64, fresh bool) {
	if sc.kCostGen[k] == sc.winGen {
		return sc.kCost[k], false
	}
	p = sc.pipelineSpan(cm, window, k, pr, frac) + boundary
	sc.kCost[k] = p
	sc.kCostGen[k] = sc.winGen
	return p, true
}

// prepareWindow builds the k-independent index of one candidate window:
// instruction-ID→position map, window-local dependency edges (same order
// the map-based builder produced: program order, predecessors as returned
// by g.Preds), and each stage's position range and stream (see stageOf).
func (sc *dpScratch) prepareWindow(g *ir.Graph, window []*ir.Instr) {
	n := len(window)
	sc.posOf = grow(sc.posOf, len(g.Instrs))
	sc.posGen = grow(sc.posGen, len(g.Instrs))
	sc.winGen++
	gen := sc.winGen
	for i, in := range window {
		sc.posOf[in.ID] = i
		sc.posGen[in.ID] = gen
	}
	sc.depOff = grow(sc.depOff, n+1)
	sc.depBuf = sc.depBuf[:0]
	for i, in := range window {
		sc.depOff[i] = len(sc.depBuf)
		for _, p := range g.Preds(in.ID) {
			if sc.posGen[p] == gen {
				sc.depBuf = append(sc.depBuf, sc.posOf[p])
			}
		}
	}
	sc.depOff[n] = len(sc.depBuf)
	sc.stOff, sc.stStream = sc.stOff[:0], sc.stStream[:0]
	for i, in := range window {
		if i > 0 && in.IsComm() == window[i-1].IsComm() {
			continue
		}
		stream := 0
		if in.IsComm() {
			stream = 1
		}
		sc.stOff = append(sc.stOff, i)
		sc.stStream = append(sc.stStream, stream)
	}
	sc.stOff = append(sc.stOff, n)
}

// pipelineSpan simulates the stage pipeline of a prepared window at
// partition count k and returns its end-to-end span — pipelineCost minus
// the k-independent boundary cost, which Run hoists out of the k loop. The
// issue order and arithmetic are identical to the schedulePlan walk
// (stages in order; within a stage, partitions; within both, program
// order), so chosen ranges and costs are byte-identical; each
// stage-partition pair walks only its stage's positions, and the plan
// slice, position map and per-position slices the walk would allocate are
// replaced by the scratch arenas. Every instance's dependencies sit at
// earlier positions of its own partition, issued before it, so the
// end-time matrix needs no clearing.
func (sc *dpScratch) pipelineSpan(cm *cost.Model, window []*ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	n := len(window)
	sc.durs = grow(sc.durs, n)
	for i, in := range window {
		slot := in.ID*sc.durStride + k
		if sc.durMemoGen[slot] != sc.durGen {
			sc.durMemo[slot] = instanceDur(cm, in, k, pr, frac, &sc.tmp)
			sc.durMemoGen[slot] = sc.durGen
		}
		sc.durs[i] = sc.durMemo[slot]
	}
	sc.end = grow(sc.end, n*k)
	end := sc.end
	var clock [2]float64
	span := 0.0
	for s, stream := range sc.stStream {
		lo, hi := sc.stOff[s], sc.stOff[s+1]
		for p := 0; p < k; p++ {
			for pos := lo; pos < hi; pos++ {
				start := clock[stream]
				for _, d := range sc.depBuf[sc.depOff[pos]:sc.depOff[pos+1]] {
					if e := end[d*k+p]; e > start {
						start = e
					}
				}
				e := start + sc.durs[pos]
				end[pos*k+p] = e
				clock[stream] = e
				if e > span {
					span = e
				}
			}
		}
	}
	return span
}
