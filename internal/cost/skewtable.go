package cost

import (
	"fmt"

	"lancet/internal/cache"
	"lancet/internal/netsim"
)

// The skew interpolation tables (DESIGN.md §13) replace the full link-level
// netsim replay AllToAllSkewedUs used to pay on every distinct payload with
// a precomputed piecewise-linear table per routing-profile fingerprint:
// built lazily from exact replays on a geometric byte ladder, then consulted
// lock-free and allocation-free by every subsequent query.
//
// The table can afford to be small because per-link drain time is affine in
// the payload scale: a device's tier load is (up to integer byte rounding)
// proportional to bytesPerDevice, and load/effBW(peak, load) expands to
// (load + ramp)/peak. The replayed total is the max of such affine
// functions, so it is piecewise linear in bytesPerDevice — and whenever the
// same link bounds both endpoints of a segment, the max is a single affine
// function over the whole segment (affine functions cross at most once) and
// linear interpolation is *exact* up to the sub-byte rounding of the
// transfer matrix. Build therefore refines the ladder until neighboring
// points agree on their bounding link, which keeps the practical error
// orders of magnitude below the ≤2% bound the property tests pin.

const (
	// skewTableMinBytes floors the table: tinier payloads round most matrix
	// entries to zero bytes, making the replay a discontinuous staircase
	// that interpolation cannot bound. Queries below it (absent from every
	// real workload — the DP's micro-payloads are tens of KB and up) replay
	// the matrix exactly instead.
	skewTableMinBytes = int64(1) << 10
	// skewTableMaxPoints caps refinement: a pathological profile whose
	// bounding link flaps from rounding noise must not degenerate into one
	// replay per query.
	skewTableMaxPoints = 512
	// skewTableCap bounds one Model's table registry. A pooled serving
	// session meets every routing spec its clients send for its model and
	// cluster, so the registry evicts its least recently used table beyond
	// this many; planbench's plan-cold mix needs at most 2 per session. A
	// table is a pure function of (cluster, profile), so an eviction costs
	// only a rebuild.
	skewTableCap = 16
)

// skewTable is the immutable interpolation table of one (routing profile,
// cluster) pair. Safe for concurrent lock-free reads once built.
type skewTable struct {
	points []commPoint // ascending bytes, f(bytes) in microseconds
}

// lookup interpolates the table at bytesPerDevice. Callers guarantee
// bytesPerDevice >= skewTableMinBytes (== points[0].bytes); queries beyond
// the last point extrapolate at the final segment's slope, exactly like the
// uniform comm tables.
//
//lancet:hotpath
func (t *skewTable) lookup(bytesPerDevice int64) float64 {
	return interpolate(t.points, bytesPerDevice)
}

// skewTableFor returns the interpolation table for the profile, building it
// on first use; concurrent first uses of one profile build it once. A build
// counts as a memo miss and a reuse as a hit. Beyond skewTableCap tables
// the least recently used one is dropped; a caller holding it keeps it.
func (m *Model) skewTableFor(prof *netsim.RoutingProfile) *skewTable {
	tab, src, err := m.skewTabs.Do(prof.Fingerprint(), func() (*skewTable, error) {
		return m.buildSkewTable(prof), nil
	})
	if err != nil {
		// The build panicked in the goroutine that ran it.
		panic(fmt.Sprintf("cost: skew table build: %v", err))
	}
	if src == cache.Built {
		m.misses.Add(1)
	} else {
		m.hits.Add(1)
	}
	return tab
}

// buildSkewTable replays the profile's transfer matrix at a geometric byte
// ladder (one point per octave from skewTableMinBytes to maxProfiledBytes),
// then subdivides every segment whose endpoints disagree on the bounding
// link until they agree — the condition under which linear interpolation is
// exact (see the package comment above).
func (m *Model) buildSkewTable(prof *netsim.RoutingProfile) *skewTable {
	type point struct {
		commPoint
		arg netsim.DrainArgmax
	}
	eval := func(b int64) point {
		timing, arg, err := m.net.AllToAllTimedArgmax(prof.Matrix(b))
		if err != nil {
			// A validated profile emits a square, non-negative matrix;
			// anything else is a programming error, not a workload property.
			panic(fmt.Sprintf("cost: netsim rejected a profile matrix: %v", err))
		}
		return point{commPoint{b, timing.TotalUs}, arg}
	}
	var pts []point
	for b := skewTableMinBytes; ; b *= 2 {
		pts = append(pts, eval(b))
		if b >= maxProfiledBytes {
			break
		}
	}
	for i := 0; i+1 < len(pts) && len(pts) < skewTableMaxPoints; {
		lo, hi := pts[i], pts[i+1]
		if lo.arg == hi.arg || hi.bytes-lo.bytes <= 64 {
			i++
			continue
		}
		mid := eval(lo.bytes + (hi.bytes-lo.bytes)/2)
		pts = append(pts, point{})
		copy(pts[i+2:], pts[i+1:])
		pts[i+1] = mid
	}
	t := &skewTable{points: make([]commPoint, len(pts))}
	for i, p := range pts {
		t.points[i] = p.commPoint
	}
	return t
}

// exactSkewedUs replays the profile's transfer matrix at bytesPerDevice on
// the link-level simulator: the price of payloads below the table floor,
// where matrix rounding makes interpolation meaningless. No planner
// workload prices a payload that small, so nothing is memoized.
func (m *Model) exactSkewedUs(bytesPerDevice int64, prof *netsim.RoutingProfile) float64 {
	t, err := m.net.AllToAllUs(prof.Matrix(bytesPerDevice))
	if err != nil {
		panic(fmt.Sprintf("cost: netsim rejected a profile matrix: %v", err))
	}
	return t
}

// UniformReplayUs prices a *uniform* all-to-all of bytesPerDevice on the
// link-level simulator (not the closed form) and memoizes the result — the
// replay bound the session's irregular-override path charges for the
// size-exchange phase. Byte-identical to draining
// netsim.UniformMatrix(devices, bytesPerDevice) on a fresh Network.
func (m *Model) UniformReplayUs(bytesPerDevice int64) float64 {
	s := &m.uniReplay
	if t, ok := s.get(bytesPerDevice); ok {
		m.hits.Add(1)
		return t
	}
	t, err := m.net.AllToAllUs(netsim.UniformMatrix(m.fleet.totalGPUs, bytesPerDevice))
	if err != nil {
		panic(fmt.Sprintf("cost: netsim rejected a uniform matrix: %v", err))
	}
	s.put(bytesPerDevice, t)
	m.misses.Add(1)
	return t
}
