// Package netsim is a link-level network simulator for collective
// operations on a cluster: every device has finite NVLink bandwidth toward
// node peers, a finite share of its node's NICs toward other nodes, and —
// when the cluster's topology declares racks with an oversubscribed spine —
// a still smaller share toward other racks (DESIGN.md §11). A transfer
// matrix completes when the most-loaded link on the most-loaded tier drains
// (LogGP-style bandwidth bound plus startup latency).
//
// The closed-form cost model (package cost) prices *uniform* collectives;
// netsim generalizes to arbitrary per-pair payloads, which is what skewed
// MoE routing produces: the device hosting a hot expert becomes an ingress
// bottleneck that a uniform model cannot see (the imbalance FasterMoE's
// expert shadowing targets, paper Sec. 8).
package netsim

import (
	"fmt"
	"math"
	"sync"

	"lancet/internal/hw"
)

// The drain loops below run inside the planner's inner DP sweep; steady
// state must not allocate (DESIGN.md §13). Constructors and matrix
// builders carry //lancet:alloc-ok.
//
//lancet:hotpath

// Network simulates collectives on a cluster. The constructor precomputes
// the per-pair tier classification and per-device tier bandwidths once, and
// timed replays borrow their per-tier load accumulators from a sync.Pool, so
// the drain loop itself allocates nothing in steady state (DESIGN.md §13).
// A Network is safe for concurrent use; hold one per cost model or session
// rather than building one per replay.
type Network struct {
	g    int
	tier []hw.Tier              // tier[src*g+dst]: path tier of each pair
	bw   [hw.NumTiers][]float64 // bw[t][dev]: peak bytes/sec of dev on tier t
	pool sync.Pool              // *drainScratch
}

// drainScratch is the reusable working set of one timed replay: flat
// per-tier, per-device egress/ingress byte accumulators indexed tier*g+dev —
// the arena that replaces the per-call slice-of-slices of the original drain
// loop.
type drainScratch struct {
	eg, in []float64
}

// New builds a network simulator for the cluster, precomputing the pair-tier
// index and per-device tier bandwidths (O(devices²), the cost of a single
// drain under the previous implementation).
//
//lancet:alloc-ok
func New(c hw.Cluster) *Network {
	g := c.TotalGPUs()
	n := &Network{g: g, tier: make([]hw.Tier, g*g)}
	for src := 0; src < g; src++ {
		for dst := 0; dst < g; dst++ {
			if src != dst {
				n.tier[src*g+dst] = c.TierOf(src, dst)
			}
		}
	}
	for t := hw.Tier(0); t < hw.NumTiers; t++ {
		n.bw[t] = make([]float64, g)
		for d := 0; d < g; d++ {
			n.bw[t][d] = c.TierGBsPerGPUOf(d, t) * 1e9
		}
	}
	return n
}

// scratch borrows a cleared drain arena from the pool.
//
//lancet:alloc-ok
func (n *Network) scratch() *drainScratch {
	if s, ok := n.pool.Get().(*drainScratch); ok {
		clear(s.eg)
		clear(s.in)
		return s
	}
	return &drainScratch{
		eg: make([]float64, int(hw.NumTiers)*n.g),
		in: make([]float64, int(hw.NumTiers)*n.g),
	}
}

// A2ATiming is a topology-decomposed all-to-all completion time: the
// per-tier drain bounds (the slowest device's load on each tier, already in
// microseconds) and the tier that sets the total.
type A2ATiming struct {
	// TotalUs is the completion time: startup latency plus the slowest
	// tier's drain bound.
	TotalUs float64
	// TierUs[t] is the drain bound of tier t (hw.TierNVLink / TierNIC /
	// TierSpine): how long the most-loaded device needs to push or pull its
	// traffic on that tier, were the tier the only constraint.
	TierUs [hw.NumTiers]float64
	// Bottleneck is the tier whose bound dominates TotalUs.
	Bottleneck hw.Tier
}

// AllToAllUs returns the completion time of an all-to-all with
// sizes[src][dst] payload bytes. See AllToAllTimed for the model.
func (n *Network) AllToAllUs(sizes [][]int64) (float64, error) {
	t, err := n.AllToAllTimed(sizes)
	return t.TotalUs, err
}

// AllToAllTimed prices an all-to-all on the cluster's hierarchical
// topology. Each src→dst payload is classified onto its path tier: NVLink
// for node peers, the per-GPU NIC share for nodes under the same rack
// switch, the oversubscribed spine for inter-rack pairs — spine traffic
// also loads the NIC it leaves through. Every device's per-tier
// egress/ingress drains concurrently with its own small-message ramp (a
// per-tier bottleneck reduction, not one flat effective bandwidth), and the
// most-loaded link sets completion.
func (n *Network) AllToAllTimed(sizes [][]int64) (A2ATiming, error) {
	res, _, err := n.AllToAllTimedArgmax(sizes)
	return res, err
}

// DrainArgmax identifies which (tier, device, direction) load bounds a
// timed replay: the link whose drain sets A2ATiming.TotalUs. The cost
// model's skew interpolation tables use it to subdivide byte segments until
// both endpoints share a bounding link — per-link drain time is affine in
// the payload scale, so within such a segment linear interpolation is exact
// up to integer byte rounding (DESIGN.md §13).
type DrainArgmax struct {
	tier    hw.Tier
	dev     int
	ingress bool
}

// AllToAllTimedArgmax is AllToAllTimed plus the bounding link of the
// dominant tier. The one accumulation pass over the matrix records each
// tier's most-loaded link as it reduces the tier's bound; ties go to the
// lowest device, egress before ingress.
func (n *Network) AllToAllTimedArgmax(sizes [][]int64) (A2ATiming, DrainArgmax, error) {
	g := n.g
	if len(sizes) != g {
		return A2ATiming{}, DrainArgmax{}, fmt.Errorf("netsim: matrix is %dx? for %d devices", len(sizes), g)
	}
	// eg[tier*g+dev] / in[tier*g+dev] accumulate bytes per tier per device
	// in a pooled arena: the accumulation order and arithmetic are identical
	// to the original per-pair map walk, so outputs are byte-identical.
	sc := n.scratch()
	defer n.pool.Put(sc)
	eg, in := sc.eg, sc.in
	nicOff := int(hw.TierNIC) * g
	total := int64(0)
	for src := range sizes {
		row := sizes[src]
		if len(row) != g {
			return A2ATiming{}, DrainArgmax{}, fmt.Errorf("netsim: row %d has %d entries for %d devices", src, len(row), g)
		}
		tiers := n.tier[src*g : src*g+g]
		for dst, b := range row {
			if b < 0 {
				return A2ATiming{}, DrainArgmax{}, fmt.Errorf("netsim: negative payload at [%d][%d]", src, dst)
			}
			if src == dst || b == 0 {
				continue
			}
			total += b
			off := int(tiers[dst]) * g
			fb := float64(b)
			eg[off+src] += fb
			in[off+dst] += fb
			if tiers[dst] == hw.TierSpine {
				// Inter-rack bytes traverse the node's NIC on both ends
				// before hitting the spine, so they count against the NIC
				// budget too.
				eg[nicOff+src] += fb
				in[nicOff+dst] += fb
			}
		}
	}
	if total == 0 {
		return A2ATiming{}, DrainArgmax{}, nil
	}
	var res A2ATiming
	var links [hw.NumTiers]DrainArgmax
	for tier := hw.Tier(0); tier < hw.NumTiers; tier++ {
		bound := 0.0
		link := DrainArgmax{tier: tier}
		off := int(tier) * g
		egT, inT := eg[off:off+g], in[off:off+g]
		bwT := n.bw[tier]
		for d := 0; d < g; d++ {
			// Each device drains at its own class's rate (DESIGN.md §12):
			// a flow between a fast and a slow node is counted at both
			// endpoints, so the slower one bounds the pair.
			bw := bwT[d]
			if t := egT[d] / effBW(bw, egT[d]); t > bound {
				bound, link.dev, link.ingress = t, d, false
			}
			if t := inT[d] / effBW(bw, inT[d]); t > bound {
				bound, link.dev, link.ingress = t, d, true
			}
		}
		res.TierUs[tier] = bound * 1e6
		links[tier] = link
		if res.TierUs[tier] > res.TierUs[res.Bottleneck] {
			res.Bottleneck = tier
		}
	}
	alpha := 15.0 + 0.4*float64(g)
	res.TotalUs = alpha + res.TierUs[res.Bottleneck]
	return res, links[res.Bottleneck], nil
}

// UniformMatrix builds the transfer matrix of a balanced all-to-all where
// every device spreads bytesPerDevice evenly across all devices (the padded
// dispatch pattern). The self slice stays local, so each source transfers
// exactly bytesPerDevice*(devices-1)/devices over the network: the diagonal
// is zero and the integer remainder is distributed deterministically over
// the first destinations instead of being dropped.
//
//lancet:alloc-ok
func UniformMatrix(devices int, bytesPerDevice int64) [][]int64 {
	m := make([][]int64, devices)
	for src := range m {
		m[src] = make([]int64, devices)
		if devices == 1 || bytesPerDevice <= 0 {
			continue
		}
		send := bytesPerDevice * int64(devices-1) / int64(devices)
		per := send / int64(devices-1)
		rem := send % int64(devices-1)
		given := int64(0)
		for dst := range m[src] {
			if dst == src {
				continue
			}
			b := per
			if given < rem {
				b++
			}
			given++
			m[src][dst] = b
		}
	}
	return m
}

// ScaleCounts converts a token-count matrix (from the functional MoE
// runtime) into a byte matrix at perTokenBytes, scaled by factor. Each
// entry is rounded to the nearest byte rather than truncated, and the
// inputs are validated up front (square matrix, non-negative counts and
// scales) so a malformed matrix fails here instead of surfacing later as a
// confusing index error in AllToAllUs.
//
//lancet:alloc-ok
func ScaleCounts(counts [][]int, perTokenBytes int64, factor float64) ([][]int64, error) {
	if perTokenBytes < 0 {
		return nil, fmt.Errorf("netsim: negative perTokenBytes %d", perTokenBytes)
	}
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("netsim: invalid scale factor %g", factor)
	}
	n := len(counts)
	m := make([][]int64, n)
	for src := range counts {
		if len(counts[src]) != n {
			return nil, fmt.Errorf("netsim: row %d has %d entries for %d rows", src, len(counts[src]), n)
		}
		m[src] = make([]int64, n)
		for dst, c := range counts[src] {
			if c < 0 {
				return nil, fmt.Errorf("netsim: negative count at [%d][%d]", src, dst)
			}
			m[src][dst] = roundBytes(float64(c) * factor * float64(perTokenBytes))
		}
	}
	return m, nil
}

// effBW mirrors the closed-form model's small-message ramp so the two
// agree on uniform traffic.
func effBW(peak, bytes float64) float64 {
	const rampBytes = 256 * 1024
	if bytes <= 0 {
		return peak
	}
	return peak * bytes / (bytes + rampBytes)
}
