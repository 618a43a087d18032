package netsim

import (
	"fmt"
	"math"
)

// DecayedProfile is the serving layer's view of a drifting workload
// (DESIGN.md §16): an exponentially decayed per-pair token accumulator fed
// by streamed gate-count updates. Each Ingest first decays every
// accumulated weight by 2^(-1/halfLife) — so an update's influence halves
// every halfLife updates — and then merges the new counts in. Snapshot
// freezes the accumulator into an immutable RoutingProfile, recomputing the
// content fingerprint from the rounded histogram, so two streams that have
// converged to the same traffic shape produce fingerprint-identical
// profiles regardless of their absolute volumes or histories.
//
// A DecayedProfile is not safe for concurrent use; the drift loop guards
// each session's accumulator with the session's own mutex.
type DecayedProfile struct {
	lambda  float64 // per-update decay factor in (0, 1]
	w       [][]float64
	updates int64
}

// NewDecayedProfile builds an empty accumulator whose updates' influence
// halves every halfLife Ingest calls. halfLife <= 0 disables decay: every
// update weighs forever (the pure running sum).
func NewDecayedProfile(halfLife float64) *DecayedProfile {
	lambda := 1.0
	if halfLife > 0 {
		lambda = math.Exp2(-1 / halfLife)
	}
	return &DecayedProfile{lambda: lambda}
}

// Updates reports how many count matrices have been merged in.
func (d *DecayedProfile) Updates() int64 { return d.updates }

// Ingest decays the accumulator one step and merges a per-pair token-count
// update (e.g. one reporting interval's aggregate gate send matrix). The
// update must pass ValidateCounts; its dimension is pinned by the first
// update.
func (d *DecayedProfile) Ingest(counts [][]int64) error {
	n := len(d.w)
	if d.w == nil {
		n = len(counts)
	}
	if err := ValidateCounts(counts, n); err != nil {
		return err
	}
	if d.w == nil {
		d.w = make([][]float64, n)
		for i := range d.w {
			d.w[i] = make([]float64, n)
		}
	}
	for src, row := range counts {
		for dst, v := range row {
			d.w[src][dst] = d.w[src][dst]*d.lambda + float64(v)
		}
	}
	d.updates++
	return nil
}

// ValidateCounts checks a per-pair token-count update for a fleet of
// devices: a devices x devices matrix of non-negative counts carrying at
// least one token, whose total fits an int64. A wrapped total would pass
// the no-tokens check with garbage weights, so it is rejected, as
// ProfileFromCounts rejects one.
func ValidateCounts(counts [][]int64, devices int) error {
	if len(counts) != devices {
		return fmt.Errorf("netsim: routing update has %d rows, want a %d x %d matrix", len(counts), devices, devices)
	}
	total := int64(0)
	for src, row := range counts {
		if len(row) != devices {
			return fmt.Errorf("netsim: routing update row %d has %d entries, want %d", src, len(row), devices)
		}
		for dst, v := range row {
			if v < 0 {
				return fmt.Errorf("netsim: routing update count [%d][%d] is negative (%d)", src, dst, v)
			}
			if v > math.MaxInt64-total {
				return fmt.Errorf("netsim: routing update total overflows int64 at [%d][%d]", src, dst)
			}
			total += v
		}
	}
	if total == 0 {
		return fmt.Errorf("netsim: routing update carries no tokens")
	}
	return nil
}

// Snapshot freezes the accumulator into an immutable RoutingProfile. The
// decayed weights are rescaled so the largest entry lands on the parametric
// generators' resolution before rounding — only the *shape* survives, so a
// stream that has settled on a stable distribution keeps producing the same
// fingerprint while its absolute token volume varies.
func (d *DecayedProfile) Snapshot() (*RoutingProfile, error) {
	if d.w == nil {
		return nil, fmt.Errorf("netsim: snapshot of an empty accumulator")
	}
	maxW := 0.0
	for _, row := range d.w {
		for _, v := range row {
			if v > maxW {
				maxW = v
			}
		}
	}
	if maxW <= 0 {
		return nil, fmt.Errorf("netsim: accumulator has no weight")
	}
	scale := profileResolution / maxW
	counts := make([][]int64, len(d.w))
	total := int64(0)
	for src, row := range d.w {
		counts[src] = make([]int64, len(row))
		for dst, v := range row {
			c := int64(math.Round(v * scale))
			counts[src][dst] = c
			total += c
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("netsim: accumulator rounds to an empty histogram")
	}
	return newProfile(counts, total), nil
}

// Counts returns a deep copy of the profile's per-pair token histogram —
// the currency of /v1/routing updates and the drift experiment's replayed
// schedules.
func (p *RoutingProfile) Counts() [][]int64 {
	out := make([][]int64, len(p.counts))
	for i, row := range p.counts {
		out[i] = append([]int64(nil), row...)
	}
	return out
}

// L1Distance is the drift metric (DESIGN.md §16): the L1 distance between
// the two profiles' normalized traffic matrices, in [0, 2]. 0 means the
// same shape (regardless of volume); 2 means disjoint traffic. Profiles
// shaped for different device counts are maximally distant.
func (p *RoutingProfile) L1Distance(q *RoutingProfile) float64 {
	if q == nil || len(p.counts) != len(q.counts) {
		return 2
	}
	dist := 0.0
	for src := range p.counts {
		for dst := range p.counts[src] {
			a := float64(p.counts[src][dst]) / float64(p.total)
			b := float64(q.counts[src][dst]) / float64(q.total)
			dist += math.Abs(a - b)
		}
	}
	return dist
}
