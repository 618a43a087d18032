package lancet_test

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"lancet"
	"lancet/internal/ir"
	"lancet/internal/sim"
)

// sortedOverlap is the reference for the simulator's overlap breakdown:
// it collects the spans' comm, compute and all-to-all intervals, sorts
// each list by start, as the simulator did before it relied on its streams
// issuing in order, coalesces them and measures the intersections the way
// the simulator does.
func sortedOverlap(g *ir.Graph, spans []sim.Span) sim.Breakdown {
	var b sim.Breakdown
	var comm, comp, a2a [][2]float64
	for _, s := range spans {
		iv := [2]float64{s.StartUs, s.EndUs}
		if s.Stream == sim.StreamComm {
			b.CommBusyUs += s.EndUs - s.StartUs
			comm = append(comm, iv)
		} else {
			b.ComputeBusyUs += s.EndUs - s.StartUs
			comp = append(comp, iv)
		}
		if g.Instr(s.Instr).Op == ir.OpAllToAll {
			b.AllToAllUs += s.EndUs - s.StartUs
			a2a = append(a2a, iv)
		}
	}
	merged := func(xs [][2]float64) [][2]float64 {
		slices.SortFunc(xs, func(x, y [2]float64) int { return cmp.Compare(x[0], y[0]) })
		var out [][2]float64
		for _, x := range xs {
			if n := len(out); n > 0 && x[0] <= out[n-1][1] {
				out[n-1][1] = max(out[n-1][1], x[1])
				continue
			}
			out = append(out, x)
		}
		return out
	}
	measure := func(a, c [][2]float64) float64 {
		total := 0.0
		for i, j := 0, 0; i < len(a) && j < len(c); {
			if lo, hi := max(a[i][0], c[j][0]), min(a[i][1], c[j][1]); hi > lo {
				total += hi - lo
			}
			if a[i][1] < c[j][1] {
				i++
			} else {
				j++
			}
		}
		return total
	}
	mComm, mComp := merged(comm), merged(comp)
	b.OverlapUs = measure(mComm, mComp)
	b.NonOverlappedA2AUs = b.AllToAllUs - measure(merged(a2a), mComp)
	b.NonOverlappedCommUs = b.CommBusyUs - b.OverlapUs
	b.NonOverlappedComputeUs = b.ComputeBusyUs - b.OverlapUs
	return b
}

// TestBreakdownsMatchSortedReference pins the contract the simulator's
// interval merge relies on instead of sorting: on every plan-cold shape,
// the Lancet and Tutel plans' seed-17 iterations report the overlap
// breakdown the sorted reference computes from their spans, bit for bit.
func TestBreakdownsMatchSortedReference(t *testing.T) {
	for _, shape := range goldenShapes() {
		sess, err := shape.session()
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		lp, err := sess.Lancet(lancet.Options{})
		if err != nil {
			t.Fatalf("%v: lancet: %v", shape, err)
		}
		tp, err := sess.Baseline(lancet.FrameworkTutel)
		if err != nil {
			t.Fatalf("%v: tutel: %v", shape, err)
		}
		for _, p := range []*lancet.Plan{lp, tp} {
			tl, err := p.SimulateTraced(17)
			if err != nil {
				t.Fatalf("%v %s: %v", shape, p.Framework, err)
			}
			want := sortedOverlap(p.Graph, tl.Spans)
			got := sim.Breakdown{
				CommBusyUs: tl.CommBusyUs, ComputeBusyUs: tl.ComputeBusyUs,
				OverlapUs:           tl.OverlapUs,
				NonOverlappedCommUs: tl.NonOverlappedCommUs, NonOverlappedComputeUs: tl.NonOverlappedComputeUs,
				AllToAllUs: tl.AllToAllUs, NonOverlappedA2AUs: tl.NonOverlappedA2AUs,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: breakdown\n%+v\nwant (sorted reference)\n%+v", shape, p.Framework, got, want)
			}
		}
	}
}
