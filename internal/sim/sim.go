// Package sim executes an IR program on a simulated device and produces a
// timeline. It models what a CUDA device with one compute stream and one
// communication (NCCL) stream does: instructions issue in program order on
// their stream, start when both their data dependencies and their stream are
// free, and run for the duration given by the cost model. The passes embed
// their schedules in program order, so the program is the schedule.
//
// Because training is SPMD (every device runs the same program, collectives
// are priced at cluster scope), a single device timeline is the iteration
// time — the same reduction the paper's pipeline scheduler makes (Sec. 5.3).
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
)

// Stream identifies which hardware queue an instruction occupies.
type Stream int

const (
	StreamCompute Stream = iota
	StreamComm
)

// Span records one executed instruction.
type Span struct {
	Instr   int
	Stream  Stream
	StartUs float64
	EndUs   float64
}

// Breakdown decomposes an iteration the way paper Figs. 2 and 13 do.
type Breakdown struct {
	// Busy time per stream (sum of span durations).
	CommBusyUs    float64
	ComputeBusyUs float64
	// OverlapUs is wall-clock time during which both streams were busy.
	OverlapUs float64
	// Non-overlapped portions: busy time minus overlap.
	NonOverlappedCommUs    float64
	NonOverlappedComputeUs float64
	// Category totals used by Fig. 2.
	AllToAllUs float64
	ExpertUs   float64
	OtherUs    float64
	// NonOverlappedA2AUs is all-to-all busy time not covered by compute —
	// the quantity Lancet's passes attack specifically.
	NonOverlappedA2AUs float64
	// IrregularA2AUs is all-to-all busy time executed with irregular
	// (override-derived) durations — actual routed payloads or link-level
	// skewed transfer matrices — rather than the padded closed form. It
	// makes the skew replay visible in the breakdown: under a hot workload
	// it converges toward AllToAllUs, under balanced routing it is the
	// (cheaper) unpadded share.
	IrregularA2AUs float64
	// A2ATierUs attributes all-to-all busy time to the topology tier that
	// bounds each exchange (DESIGN.md §11): on a flat fabric everything
	// lands on NVLink or NIC; an oversubscribed spine pulls time into the
	// spine bucket. Indexed by hw.Tier.
	A2ATierUs [hw.NumTiers]float64
	// StragglerClassUs attributes, per node class, the compute time the
	// iteration spent waiting on that class beyond what the fleet's fastest
	// class would have taken (DESIGN.md §12). Nil on uniform clusters; on a
	// mixed fleet the slowest class carries the whole penalty.
	StragglerClassUs map[string]float64
}

// Timeline is the result of a simulated iteration.
type Timeline struct {
	// Spans lists every executed instruction in program order. Only
	// RunTraced fills it; Run leaves it nil.
	Spans   []Span
	TotalUs float64
	Breakdown
}

// Executor runs programs against a cost model.
type Executor struct {
	Cost *cost.Model
	// JitterPct adds a deterministic per-execution uniform perturbation of
	// +-JitterPct to every instruction (0 disables). "Actual" runs use a
	// few percent; predictions use 0.
	JitterPct float64
	// SystematicPct adds a run-wide speed factor of +-SystematicPct drawn
	// once per seed, modeling correlated run-to-run variation (network
	// state, stragglers) that per-op jitter averages away. It is the main
	// source of prediction error in the Fig. 14 experiment.
	SystematicPct float64
	// Seed drives the jitter stream.
	Seed int64
	// Predict prices instructions with the optimizer-visible cost model
	// (cached profiles + interpolated comm tables) instead of ground
	// truth. Used to evaluate cost-model accuracy (Fig. 14).
	Predict bool
	// A2ABytesOverride substitutes the actual (irregular, unpadded)
	// payload for specific all-to-all instructions, priced with the
	// two-phase irregular exchange of Fig. 10. Keyed by instruction ID,
	// the instruction's position in the program run.
	A2ABytesOverride map[int]int64
	// A2ADurOverrideUs overrides specific all-to-all durations outright
	// (microseconds), for callers that price irregular transfer matrices
	// with a link-level network simulator. Keyed like A2ABytesOverride,
	// over which it takes precedence; ignored in Predict mode.
	A2ADurOverrideUs map[int]float64
}

// runScratch is the reusable working set of one simulated iteration: the
// per-instruction end-time array, the spans, the interval buffers of the
// breakdown computation and the jitter source. Pooled so concurrent
// sessions (parallel /v1/plan requests, cmd/lancet -parallel) replay
// without contending on fresh allocations (DESIGN.md §13). The spans never
// leave the scratch: RunTraced hands the caller a copy.
type runScratch struct {
	end                    []float64
	spans                  []Span
	comm, comp, a2a        []interval
	mergedComm, mergedComp []interval
	mergedA2A              []interval
	// rng draws from src, which every jittered run reseeds, so one source
	// serves both of its streams.
	src rand.Source
	rng *rand.Rand
}

var runPool = sync.Pool{New: func() any {
	src := rand.NewSource(0)
	return &runScratch{src: src, rng: rand.New(src)}
}}

// Run executes g's program order and returns its timeline, without spans.
// Each instruction is ready when its stream is free and the producers of
// its operands have ended. A program that reads a tensor at or before the
// instruction producing it is not a schedule, and Run rejects it before
// pricing anything.
func (e *Executor) Run(g *ir.Graph) (*Timeline, error) { return e.run(g, false) }

// RunTraced is Run, with every instruction's span in Timeline.Spans: the
// form trace export needs.
func (e *Executor) RunTraced(g *ir.Graph) (*Timeline, error) { return e.run(g, true) }

func (e *Executor) run(g *ir.Graph, traced bool) (*Timeline, error) {
	for id, in := range g.Instrs {
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= id {
				return nil, fmt.Errorf("sim: @%d consumes %%%d, produced at or after it by @%d", id, x, p)
			}
		}
	}
	sc := runPool.Get().(*runScratch)
	defer runPool.Put(sc)
	// Only jittered runs draw from the source; Predict runs skip seeding a
	// source they would never read. The run-wide factor draws first from
	// seed^0x5eed, then the per-op stream restarts from seed: the two
	// streams a fresh source per seed would give.
	sysScale := 1.0
	if !e.Predict && e.SystematicPct > 0 {
		sc.src.Seed(e.Seed ^ 0x5eed)
		sysScale = 1 + (sc.rng.Float64()*2-1)*e.SystematicPct
	}
	var rng *rand.Rand
	if !e.Predict && e.JitterPct > 0 {
		sc.src.Seed(e.Seed)
		rng = sc.rng
	}
	// end[id] needs no clearing between runs: every producer precedes its
	// consumers (checked above), so its entry is written before it is read.
	if cap(sc.end) < len(g.Instrs) {
		sc.end = make([]float64, len(g.Instrs))
	}
	end := sc.end[:len(g.Instrs)]
	var clock [2]float64 // per-stream frontier
	spans := sc.spans[:0]
	tl := &Timeline{}

	irregularUs := 0.0
	var tierUs [hw.NumTiers]float64
	var stragglerUs map[string]float64
	hetero := e.Cost.Cluster.Heterogeneous()
	for id, in := range g.Instrs {
		stream := StreamCompute
		if in.IsComm() {
			stream = StreamComm
		}
		ready := clock[stream]
		for _, x := range in.Ins {
			if p := g.Producer(x); p >= 0 && end[p] > ready {
				ready = end[p]
			}
		}
		dur, irregular := e.duration(id, in, rng)
		dur *= sysScale
		span := Span{Instr: id, Stream: stream, StartUs: ready, EndUs: ready + dur}
		end[id] = span.EndUs
		clock[stream] = span.EndUs
		spans = append(spans, span)
		if irregular {
			irregularUs += dur
		}
		if in.Op == ir.OpAllToAll {
			// Attribute the exchange to its bounding tier. Overridden
			// (irregular) durations are classified by the instruction's
			// padded payload: capacity caps the irregular exchange at the
			// padded pattern, so the two share a bottleneck tier.
			tierUs[e.Cost.A2ABottleneck(in.Bytes, in.CommDevices)] += dur
		}
		if hetero && !in.IsComm() {
			// Attribute the mixed fleet's compute penalty to the lagging
			// class, scaled by the run's systematic factor like the span
			// itself (per-op jitter averages out of the aggregate).
			if class, extra := e.Cost.ComputeStragglerUs(in); extra > 0 {
				if stragglerUs == nil {
					stragglerUs = make(map[string]float64)
				}
				stragglerUs[class] += extra * sysScale
			}
		}
		if span.EndUs > tl.TotalUs {
			tl.TotalUs = span.EndUs
		}
	}
	sc.spans = spans
	tl.Breakdown = computeBreakdown(g, spans, sc)
	if traced {
		tl.Spans = slices.Clone(spans)
	}
	tl.IrregularA2AUs = irregularUs
	tl.A2ATierUs = tierUs
	tl.StragglerClassUs = stragglerUs
	return tl, nil
}

// duration prices instruction in, at position id, and reports whether an
// irregular all-to-all path (duration or payload override) supplied it.
//
//lancet:hotpath
func (e *Executor) duration(id int, in *ir.Instr, rng *rand.Rand) (float64, bool) {
	var dur float64
	if in.Op == ir.OpAllToAll && !e.Predict && e.A2ADurOverrideUs != nil {
		if d, ok := e.A2ADurOverrideUs[id]; ok {
			if e.JitterPct > 0 {
				d *= 1 + (rng.Float64()*2-1)*e.JitterPct
			}
			return d, true
		}
	}
	irregular := false
	switch {
	case in.Op == ir.OpAllToAll && e.A2ABytesOverride != nil:
		if b, ok := e.A2ABytesOverride[id]; ok {
			if e.Predict {
				dur = e.Cost.PredictIrregularA2A(b, in.CommDevices)
			} else {
				dur = e.Cost.IrregularA2AUs(b, in.CommDevices)
			}
			irregular = true
			break
		}
		fallthrough
	case e.Predict:
		dur = e.Cost.PredictInstr(in)
	default:
		dur = e.Cost.ActualInstr(in)
	}
	if !e.Predict && e.JitterPct > 0 {
		dur *= 1 + (rng.Float64()*2-1)*e.JitterPct
	}
	return dur, irregular
}

// computeBreakdown aggregates span overlap into the timeline breakdown
// using the run's scratch arenas.
//
//lancet:hotpath
func computeBreakdown(g *ir.Graph, spans []Span, sc *runScratch) Breakdown {
	var b Breakdown
	comm, comp, a2a := sc.comm[:0], sc.comp[:0], sc.a2a[:0]
	for _, s := range spans {
		in := g.Instr(s.Instr)
		dur := s.EndUs - s.StartUs
		if s.Stream == StreamComm {
			b.CommBusyUs += dur
			comm = append(comm, interval{s.StartUs, s.EndUs})
		} else {
			b.ComputeBusyUs += dur
			comp = append(comp, interval{s.StartUs, s.EndUs})
		}
		switch in.Op {
		case ir.OpAllToAll:
			b.AllToAllUs += dur
			a2a = append(a2a, interval{s.StartUs, s.EndUs})
		case ir.OpExpertFFN:
			b.ExpertUs += dur
		default:
			b.OtherUs += dur
		}
	}
	sc.comm, sc.comp, sc.a2a = comm, comp, a2a
	sc.mergedComp = merge(sc.mergedComp, comp)
	sc.mergedComm = merge(sc.mergedComm, comm)
	sc.mergedA2A = merge(sc.mergedA2A, a2a)
	b.OverlapUs = intersectionMeasure(sc.mergedComm, sc.mergedComp)
	b.NonOverlappedA2AUs = b.AllToAllUs - intersectionMeasure(sc.mergedA2A, sc.mergedComp)
	b.NonOverlappedCommUs = b.CommBusyUs - b.OverlapUs
	b.NonOverlappedComputeUs = b.ComputeBusyUs - b.OverlapUs
	return b
}

type interval struct{ lo, hi float64 }

// merge coalesces overlapping intervals into dst (reused backing storage).
// Sorting is by lower bound; ties between equal lower bounds coalesce to
// the same result regardless of their relative order, so the unstable sort
// is deterministic in effect.
//
//lancet:hotpath
func merge(dst, xs []interval) []interval {
	if len(xs) == 0 {
		return dst[:0]
	}
	slices.SortFunc(xs, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	out := append(dst[:0], xs[0])
	for _, x := range xs[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			if x.hi > last.hi {
				last.hi = x.hi
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

//lancet:hotpath
func intersectionMeasure(a, b []interval) float64 {
	total := 0.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}
