package partition

import (
	"slices"
	"sync"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// Everything here backs the DP inner loop: zero steady-state
// allocations (DESIGN.md §13), with pool warm-up confined to the
// //lancet:alloc-ok growth helpers.
//
//lancet:hotpath

// dpScratch is the reusable working set of one partition-pass DP sweep
// (DESIGN.md §13): the prefix/DP tables, the window index of the current
// DP start, the current window's axis solution, one resumable pipeline
// simulation per partition count, and the start table and candidate
// records that let a repeated block reuse an earlier block's prices. All of it is borrowed from a sync.Pool and
// grown monotonically, so the DP inner loop — durations, clock
// simulation, boundary costs — allocates nothing in steady state.
// Window-local marks (produced/seen tensors) are generation-stamped arrays
// indexed by instruction or tensor ID instead of per-window maps: bumping
// the generation invalidates every stale entry in O(1).
type dpScratch struct {
	// DP tables (Run).
	prefix []float64
	bounds []int
	T      []float64
	best   []choice

	// Window index (beginWindow, extendWindow) of the windows of one DP
	// start, which only ever grow at the end: the program position of the
	// start's first instruction (winStart), the window-local dependency
	// edges of position pos that cross streams as
	// depBuf[depOff[pos]:depOff[pos+1]], and the stages, maximal runs of
	// instructions on one stream (Sec. 5.3): stage s covers the contiguous
	// positions [stOff[s], stOff[s+1]) and runs on stream stStream[s].
	// startGen stamps the per-k simulations that belong to this start.
	winStart int
	depOff   []int
	depBuf   []int
	stOff    []int
	stStream []int
	startGen uint64

	// The axis solution of the current window (solveAxes).
	axisSolver

	// Per-partition-count state (kState), indexed by k and grown only to
	// the largest k priced; sweepGen and nInstrs scope the duration memos
	// to one sweep (beginSweep).
	ks       []kSim
	sweepGen uint64
	nInstrs  int

	// Boundary-cost marks (boundaryCostUs), stamped with markGen.
	prodT   []uint64
	seenT   []uint64
	markGen uint64

	// Repeated blocks (matchStart, replay): the start table, open
	// addressing over a power-of-two length with entries stamped with
	// matchGen, and the candidate records of every start of the sweep,
	// start i's as recs[recOff[i]:recOff[i+1]] in sweep order.
	slots    []startSlot
	matchGen uint64
	recs     []candRec
	recOff   []int
}

// kSim is one partition count's share of a DP sweep: a duration memo and
// the resumable pipeline simulation of the current start's window.
type kSim struct {
	// dur memoizes instanceDur by program position for this sweep (negative:
	// not priced yet). A duration depends only on the instruction and k —
	// the pricer, model and payload fraction are fixed for a sweep — and
	// overlapping windows revisit the same instructions.
	dur   []float64
	sweep uint64

	// The simulation of the window of start `start` that ends at position
	// n: the end-time matrix indexed pos*k+part, the index of its last
	// stage, and the two stream clocks at the start (at) and at the end
	// (done) of that stage. A longer window of the same start issues every
	// earlier stage unchanged, so pipelineSpan resumes from here.
	start    uint64
	n        int
	stage    int
	end      []float64
	at, done [2]float64
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

// extend returns s resized to length n with its contents kept,
// reallocating with headroom only when s lacks the capacity. Entries past
// the old length are unspecified.
//
//lancet:alloc-ok
func extend[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// beginSweep opens fresh duration memos for a sweep over instruction IDs
// below nInstrs. Must be called before pipelineSpan whenever the pricing
// inputs (model, pricer, payload fraction) may have changed.
func (sc *dpScratch) beginSweep(nInstrs int) {
	sc.sweepGen++
	sc.nInstrs = nInstrs
}

// kState returns partition count k's state, growing the per-k table to
// cover k and resetting k's duration memo on its first use in the sweep.
// Only the partition counts a sweep prices get a memo and an end-time
// matrix, so a huge Options.MaxPartitions costs nothing beyond the k the
// windows admit.
//
//lancet:alloc-ok
func (sc *dpScratch) kState(k int) *kSim {
	for len(sc.ks) <= k {
		sc.ks = append(sc.ks, kSim{})
	}
	st := &sc.ks[k]
	if st.sweep != sc.sweepGen {
		st.sweep = sc.sweepGen
		st.dur = grow(st.dur, sc.nInstrs)
		for i := range st.dur {
			st.dur[i] = -1
		}
	}
	return st
}

// beginWindow starts the window index of a new DP start, whose first
// instruction sits at program position start: an empty window that
// extendWindow grows. Every per-k simulation of an earlier start is stale
// from here on.
func (sc *dpScratch) beginWindow(start int) {
	sc.startGen++
	sc.winStart = start
	sc.depOff = append(sc.depOff[:0], 0)
	sc.depBuf = sc.depBuf[:0]
	sc.stOff = append(sc.stOff[:0], 0)
	sc.stStream = sc.stStream[:0]
}

// extendWindow grows the index to window, whose prefix is the window
// indexed so far: the new positions' stages and their window-local
// dependency edges on the other stream (program order, each distinct
// producer of the position's operands once). IDs are program positions
// and every producer precedes its consumers (ir.Graph.Validate), so a
// producer lies in the window exactly when its ID is at least the
// window's start, and the edges of earlier positions never change. A
// producer on the instruction's own stream is dropped: it was issued
// earlier on that stream, and durations are non-negative, so it ended at
// or before the stream clock the instruction starts from and can never
// delay it.
func (sc *dpScratch) extendWindow(g *ir.Graph, window []*ir.Instr) {
	from := len(sc.depOff) - 1
	if from == len(window) {
		return
	}
	base := sc.winStart
	sc.stOff = sc.stOff[:len(sc.stStream)] // drop the old window end
	for pos := from; pos < len(window); pos++ {
		in := window[pos]
		edges := len(sc.depBuf)
		for _, x := range in.Ins {
			p := g.Producer(x)
			if p >= base && g.Instr(p).IsComm() != in.IsComm() && !slices.Contains(sc.depBuf[edges:], p-base) {
				sc.depBuf = append(sc.depBuf, p-base)
			}
		}
		sc.depOff = append(sc.depOff, len(sc.depBuf))
		if pos > 0 && in.IsComm() == window[pos-1].IsComm() {
			continue
		}
		stream := 0
		if in.IsComm() {
			stream = 1
		}
		sc.stOff = append(sc.stOff, pos)
		sc.stStream = append(sc.stStream, stream)
	}
	sc.stOff = append(sc.stOff, len(window))
}

// prepareWindow indexes window, which starts at program position start,
// as a new start: the form for callers that price a single window
// (windowUs, tests).
func (sc *dpScratch) prepareWindow(g *ir.Graph, start int, window []*ir.Instr) {
	sc.beginWindow(start)
	sc.extendWindow(g, window)
}

// pipelineSpan simulates the stage pipeline of the indexed window at
// partition count k and returns its end-to-end span: the window's price
// minus the k-independent boundary cost, which Run hoists out of the k
// loop. The issue order is Fig. 9's, the order the rewrite emits (stages
// in order; within a stage, partitions; within both, program order), and
// each stage-partition pair walks only its stage's positions. An instance
// starts at its stream's clock or at the latest end of its dependencies on
// the other stream, whichever is later. Durations are non-negative, so the
// stream clocks never move backward and the span is the later of the two.
//
// The simulation resumes k's previous one when it priced a shorter window
// of the same start. That window issued every stage of this one except
// its last, which the extension may have grown, with the same durations
// and dependencies (they all point backward), so their end times and
// clocks carry over bit for bit. The walk restarts from the recorded
// clocks at the start of that last stage — or at its end, when a new stage
// begins exactly at the old window end — and simulates only the rest. A k
// skipped for some windows catches up the same way on its next use. Every
// instance's dependencies sit at earlier positions of its own partition,
// issued before it, so the end-time matrix needs no clearing.
func (sc *dpScratch) pipelineSpan(cm *cost.Model, window []*ir.Instr, k int, pr cost.A2APricer, frac float64) float64 {
	st := sc.kState(k)
	n := len(window)
	s, c := 0, [2]float64{}
	if st.start == sc.startGen {
		s, c = st.stage, st.at
		if sc.stOff[s+1] == st.n {
			s, c = s+1, st.done
		}
	} else {
		st.start, st.end = sc.startGen, st.end[:0]
	}
	durs := st.dur[sc.winStart : sc.winStart+n]
	for pos := sc.stOff[s]; pos < n; pos++ {
		if durs[pos] < 0 {
			durs[pos] = instanceDur(cm, window[pos], k, pr, frac)
		}
	}
	st.end = extend(st.end, n*k)
	end := st.end
	last := len(sc.stStream) - 1
	for ; s <= last; s++ {
		if s == last {
			st.at = c
		}
		stream := sc.stStream[s]
		lo, hi := sc.stOff[s], sc.stOff[s+1]
		clock := c[stream]
		for p := 0; p < k; p++ {
			for pos := lo; pos < hi; pos++ {
				for _, d := range sc.depBuf[sc.depOff[pos]:sc.depOff[pos+1]] {
					if e := end[d*k+p]; e > clock {
						clock = e
					}
				}
				clock += durs[pos]
				end[pos*k+p] = clock
			}
		}
		c[stream] = clock
	}
	st.n, st.stage, st.done = n, last, c
	if c[1] > c[0] {
		return c[1]
	}
	return c[0]
}
