package partition

import (
	"fmt"
	"sort"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// Replay applies a previously chosen pipeline set verbatim instead of
// running the DP: each fixed range keeps its partition count (clamped to
// what the axes solved for the target graph admit), and no partition
// decisions are revisited. This is the degraded-replay half of a
// node-loss what-if — the question is "how does the stale plan behave on
// this fleet", not "what would we choose now" (DESIGN.md §17). Ranges with no all-to-all or no inferable axes replay
// serially; ranges outside the forward prefix or overlapping are an error.
// Evaluations counts only the per-range pricings (one per surviving
// window), never a sweep.
func Replay(g *ir.Graph, cm *cost.Model, opts Options, fixed []Range) (*Result, error) {
	opts.fillDefaults()
	if err := cm.ValidateProfile(opts.Profile); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	pr := cm.NewA2APricer(opts.Profile)
	sc := getScratch()
	defer putScratch(sc)
	fwdEnd := sc.pricePrefix(g, cm, pr, opts.PayloadFraction)
	sc.beginSweep(fwdEnd)
	prefix := sc.prefix

	ranges := append([]Range(nil), fixed...)
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Start < ranges[j].Start })
	res := &Result{SerialForwardUs: prefix[fwdEnd]}
	res.ForwardUs = res.SerialForwardUs
	prevEnd := -1
	for _, r := range ranges {
		if r.Start < 0 || r.End < r.Start || r.Start <= prevEnd {
			return nil, fmt.Errorf("partition: fixed range [%d, %d] is invalid or overlaps its predecessor", r.Start, r.End)
		}
		if r.End >= fwdEnd {
			return nil, fmt.Errorf("partition: fixed range [%d, %d] extends past the forward prefix (%d instrs)", r.Start, r.End, fwdEnd)
		}
		prevEnd = r.End
		window := g.Instrs[r.Start : r.End+1]
		if !windowHasA2A(window) || !sc.solveAxes(g, window, opts.GatePartialBatch) {
			continue
		}
		k := r.K
		if k > opts.MaxPartitions {
			k = opts.MaxPartitions
		}
		if m := sc.maxParts(g); m < k {
			k = m
		}
		if k < 2 {
			continue
		}
		p := sc.windowUs(g, cm, r.Start, window, k, pr, opts.PayloadFraction)
		res.Evaluations++
		serial := prefix[r.End+1] - prefix[r.Start]
		res.ForwardUs += p - serial
		res.Ranges = append(res.Ranges, Range{
			Start: r.Start, End: r.End, K: k, PredictedUs: p, SerialUs: serial,
		})
	}
	if err := res.rewrite(g, opts.GatePartialBatch); err != nil {
		return nil, err
	}
	return res, nil
}
