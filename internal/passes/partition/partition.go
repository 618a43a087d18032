package partition

import (
	"fmt"
	"math"

	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

// Options configures the pass. The three knobs mirror the paper's
// hyper-parameters (Sec. 6): rho (max partitions), gamma (group size) and
// iota (max partition range).
type Options struct {
	// MaxPartitions is rho, the largest partition count considered.
	// Default 8.
	MaxPartitions int
	// GroupUs is gamma: consecutive instructions are grouped until their
	// total predicted time reaches this, and the DP runs over groups.
	// Default 2000us.
	GroupUs float64
	// MaxRangeGroups is iota expressed in groups: the longest candidate
	// partition range. Default 12.
	MaxRangeGroups int
	// GatePartialBatch states whether the model's gating function can
	// decide routing from partial batches (Switch: yes; Batch Prioritized
	// Routing: no). It bounds how far pipelines may extend (Sec. 2.3).
	GatePartialBatch bool
	// Profile is the active routing profile (DESIGN.md §10). When non-nil,
	// every all-to-all the DP prices — serial windows and partitioned
	// micro-collectives alike — is costed on the link-level network
	// simulator under this traffic shape instead of the closed-form uniform
	// model, so the chosen partition counts adapt to hot-expert traffic.
	// Must be shaped for the cost model's cluster; nil keeps the uniform
	// pricing.
	Profile *netsim.RoutingProfile
	// PayloadFraction is the fraction of the padded all-to-all payload the
	// profiled workload actually routes (tokens dropped by capacity and
	// padding shed by the irregular exchange). It scales the bytes priced
	// under Profile, and the result is capped at the padded closed form —
	// the same two bounds the simulator's replay applies — so the DP
	// optimizes the quantity the simulation will charge. 0 means 1 (full
	// padded payload).
	PayloadFraction float64
	// Hint is ignored: every run sweeps every partition count of every
	// window (DESIGN.md §14).
	//
	// Deprecated: the warm start it fed skipped a window's k sweep when the
	// hinted k beat its neighbours, which could return costlier plans
	// because span-vs-k is not unimodal. The field stays only until the
	// benchmark module stops setting it.
	Hint []Range
}

func (o *Options) fillDefaults() {
	if o.MaxPartitions == 0 {
		o.MaxPartitions = 8
	}
	if o.GroupUs == 0 {
		o.GroupUs = 2000
	}
	if o.MaxRangeGroups == 0 {
		o.MaxRangeGroups = 12
	}
	if o.PayloadFraction <= 0 || o.PayloadFraction > 1 {
		o.PayloadFraction = 1
	}
}

// Range is one chosen pipeline: the instructions [Start, End] (input-graph
// program order, inclusive) partitioned K ways. It carries no partition
// axes: Apply solves them where it rewrites the window.
type Range struct {
	Start, End  int
	K           int
	PredictedUs float64
	SerialUs    float64
}

// Result reports the pass outcome.
type Result struct {
	// Graph is the rewritten program with pipelines materialized.
	Graph *ir.Graph
	// Ranges are the chosen pipelines.
	Ranges []Range
	// Evaluations counts the P(i,n,k) pipeline candidates the DP
	// considered, reused prices included: a window whose price is reused
	// from a repeated block counts as if it had been simulated again.
	Evaluations int
	// ForwardUs is T(N), the DP's predicted optimal forward time.
	ForwardUs float64
	// SerialForwardUs is the predicted unpartitioned forward time.
	SerialForwardUs float64
}

// choice records one DP decision: partition the groups (from, j] k ways (or
// keep them serial when k == 1).
type choice struct {
	from int
	k    int
	pUs  float64
	sUs  float64
}

// Run executes the operator partition pass. The DP sweep (dpScratch.sweep)
// runs entirely on a pooled scratch arena and prices all-to-alls through a
// batched pricer acquired once up front, so it performs no allocations and
// no per-candidate cache round-trips in steady state (DESIGN.md §13).
// Evaluations counts every (window, k) candidate the sweep considers,
// including those whose price it reuses from a repeated block.
func Run(g *ir.Graph, cm *cost.Model, opts Options) (*Result, error) {
	opts.fillDefaults()
	if err := cm.ValidateProfile(opts.Profile); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	pr := cm.NewA2APricer(opts.Profile)
	sc := getScratch()
	defer putScratch(sc)
	fwdEnd, evals := sc.sweep(g, cm, pr, opts)
	bounds, best := sc.bounds, sc.best
	n := len(bounds) - 1
	res := &Result{Evaluations: evals, ForwardUs: sc.T[n], SerialForwardUs: sc.prefix[fwdEnd]}

	// Backtrack the chosen ranges. Apply solves each one's axes again: the
	// solver is deterministic, so it rewrites the window under the axes it
	// was priced under.
	for j := n; j > 0; {
		c := best[j]
		if c.k >= 2 {
			res.Ranges = append(res.Ranges, Range{
				Start: bounds[c.from], End: bounds[j] - 1,
				K: c.k, PredictedUs: c.pUs, SerialUs: c.sUs,
			})
		}
		j = c.from
	}
	// Reverse into program order.
	for l, r := 0, len(res.Ranges)-1; l < r; l, r = l+1, r-1 {
		res.Ranges[l], res.Ranges[r] = res.Ranges[r], res.Ranges[l]
	}

	ng, err := Apply(g, res.Ranges, opts.GatePartialBatch)
	if err != nil {
		return nil, fmt.Errorf("partition: rewrite failed: %w", err)
	}
	res.Graph = ng
	return res, nil
}

// sweep runs the DP over g's forward prefix on the scratch: it prices the
// prefix, cuts it into groups (sc.bounds) and fills T and best, where T[j]
// is the cheapest forward time of the first j groups and best[j] the last
// window of that cover. It returns the forward length and the number of
// (window, k) candidates considered.
//
// The window loop is push-ordered: for each start group i it grows the
// window (i, j] one group at a time, so the window index and every k's
// simulation extend the previous window's instead of being rebuilt, and it
// pushes each window's candidates into T[j]. T[i] is final by then (every
// window ending at i starts earlier), and each T[j] receives its
// candidates in ascending (i, k) order, so of equal-cost candidates the
// first in that order wins.
//
// A start whose leading groups are an exact translate of an earlier
// start's (matchStart) replays that start's recorded candidates for those
// windows, bit-identical to what indexing, solving and simulating them
// would give, and sweeps only the windows reaching past them. Every start
// records its candidates, reused or fresh, for later starts.
//
//lancet:hotpath
func (sc *dpScratch) sweep(g *ir.Graph, cm *cost.Model, pr cost.A2APricer, opts Options) (fwdEnd, evals int) {
	fwdEnd = sc.pricePrefix(g, cm, pr, opts.PayloadFraction)
	sc.beginSweep(fwdEnd)
	prefix := sc.prefix
	sc.bounds = makeGroups(prefix, opts.GroupUs, sc.bounds[:0])
	bounds := sc.bounds
	n := len(bounds) - 1 // number of groups

	sc.T = grow(sc.T, n+1)
	sc.best = grow(sc.best, n+1)
	T, best := sc.T, sc.best
	T[0] = 0
	for j := 1; j <= n; j++ {
		// best[j] is reset too: when no candidate has a finite cost (an
		// overflowing price), nothing overwrites it, and the backtrack must
		// not follow choices an earlier run left in the pooled scratch.
		T[j], best[j] = math.Inf(1), choice{}
	}
	sc.beginMatch(n)
	for i := 0; i < n; i++ {
		// The last group a window from i may end at, written so that a
		// MaxRangeGroups near MaxInt cannot overflow.
		last := n
		if opts.MaxRangeGroups < n-i {
			last = i + opts.MaxRangeGroups
		}
		sc.recOff[i] = len(sc.recs)
		j, hasA2A := i+1, false
		if r, m := sc.matchStart(g, i, last-i); m > 0 {
			var reused int
			hasA2A, reused = sc.replay(g, i, r, m)
			evals += reused
			j += m
		}
		sc.beginWindow(bounds[i])
		for ; j <= last; j++ {
			window := g.Instrs[bounds[i]:bounds[j]]
			sc.extendWindow(g, window)
			hasA2A = hasA2A || windowHasA2A(g.Instrs[bounds[j-1]:bounds[j]])
			serial := prefix[bounds[j]] - prefix[bounds[i]]
			sc.offer(j, serial, choice{from: i, k: 1, sUs: serial})
			if !hasA2A || !sc.solveAxes(g, window, opts.GatePartialBatch) {
				continue
			}
			kmax := opts.MaxPartitions
			if m := sc.maxParts(g); m < kmax {
				kmax = m
			}
			// The boundary plumbing cost is k-independent; price it once per
			// window and add it to every candidate's simulated span (the same
			// sum windowUs computes per candidate).
			boundary := boundaryCostUs(g, cm, bounds[i], window, sc)
			for k := 2; k <= kmax; k++ {
				p := sc.pipelineSpan(cm, window, k, pr, opts.PayloadFraction) + boundary
				evals++
				sc.offer(j, p, choice{from: i, k: k, pUs: p, sUs: serial})
				sc.record(candRec{d: int32(j - i), k: int32(k), us: p})
			}
		}
	}
	sc.recOff[n] = len(sc.recs)
	return fwdEnd, evals
}

// pricePrefix prices every forward instruction once up front and returns
// the forward length: the forward pass is the program prefix (everything
// after is backward/optimizer, handled by the dW scheduling pass), and
// sc.prefix[i] becomes the summed predicted time of its first i
// instructions, so the DP prices a window by subtraction instead of
// re-walking it. Compute predictions hit the cost model's op-profile memo;
// all-to-alls price through the pricer's table.
func (sc *dpScratch) pricePrefix(g *ir.Graph, cm *cost.Model, pr cost.A2APricer, frac float64) int {
	fwdEnd := len(g.Instrs)
	for i, in := range g.Instrs {
		if in.Phase != ir.Forward {
			fwdEnd = i
			break
		}
	}
	sc.prefix = grow(sc.prefix, fwdEnd+1)
	sc.prefix[0] = 0
	for i := 0; i < fwdEnd; i++ {
		sc.prefix[i+1] = sc.prefix[i] + predictInstr(cm, g.Instr(i), pr, frac)
	}
	return fwdEnd
}

// makeGroups splits the forward prefix into groups of roughly groupUs
// predicted time and returns the group boundaries: bounds[i] is the first
// instruction of group i, bounds[len-1] == len(prefix)-1. The prefix slice
// holds cumulative predicted instruction times (see Run); buf is reused as
// backing storage when it has the capacity.
func makeGroups(prefix []float64, groupUs float64, buf []int) []int {
	fwdEnd := len(prefix) - 1
	bounds := append(buf, 0)
	acc := 0.0
	for i := 0; i < fwdEnd; i++ {
		acc += prefix[i+1] - prefix[i]
		if acc >= groupUs && i+1 < fwdEnd {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	bounds = append(bounds, fwdEnd)
	return bounds
}

func windowHasA2A(window []*ir.Instr) bool {
	for _, in := range window {
		if in.Op == ir.OpAllToAll {
			return true
		}
	}
	return false
}
