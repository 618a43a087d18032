// External test package: these tests price netsim against the closed-form
// cost model, and cost itself imports netsim for AllToAllSkewedUs — an
// in-package test would be an import cycle.
package netsim_test

import (
	"math"
	"testing"
	"testing/quick"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/netsim"
	"lancet/internal/race"
)

func TestUniformAgreesWithClosedForm(t *testing.T) {
	cl := hw.V100Cluster(2)
	n := netsim.New(cl)
	cm := cost.NewModel(cl)
	// Sizes deliberately span the 256 KiB small-message bandwidth ramp that
	// effBW models on both sides: well below, around, and well above it.
	for _, bytes := range []int64{64 << 10, 256 << 10, 1 << 20, 16 << 20, 64 << 20, 256 << 20} {
		got, err := n.AllToAllUs(netsim.UniformMatrix(cl.TotalGPUs(), bytes))
		if err != nil {
			t.Fatal(err)
		}
		want := cm.ActualInstr(&ir.Instr{Op: ir.OpAllToAll, Bytes: bytes, CommDevices: cl.TotalGPUs()})
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("bytes=%d: netsim %v us vs closed-form %v us (%.1f%% apart)",
				bytes, got, want, rel*100)
		}
	}
}

func TestUniformMatrixExactSemantics(t *testing.T) {
	for _, tc := range []struct {
		devices int
		bytes   int64
	}{{16, 1 << 20}, {16, (1 << 20) + 7}, {3, 100}, {7, 999983}, {1, 1 << 20}, {4, 0}} {
		m := netsim.UniformMatrix(tc.devices, tc.bytes)
		wantPerSrc := int64(0)
		if tc.devices > 1 && tc.bytes > 0 {
			wantPerSrc = tc.bytes * int64(tc.devices-1) / int64(tc.devices)
		}
		for src := range m {
			if m[src][src] != 0 {
				t.Errorf("d=%d b=%d: diagonal [%d][%d] = %d, want 0",
					tc.devices, tc.bytes, src, src, m[src][src])
			}
			var rowSum, lo, hi int64
			lo = math.MaxInt64
			for dst, b := range m[src] {
				if dst == src {
					continue
				}
				rowSum += b
				if b < lo {
					lo = b
				}
				if b > hi {
					hi = b
				}
			}
			if rowSum != wantPerSrc {
				t.Errorf("d=%d b=%d: src %d transfers %d bytes, want exactly %d",
					tc.devices, tc.bytes, src, rowSum, wantPerSrc)
			}
			if tc.devices > 1 && hi-lo > 1 {
				t.Errorf("d=%d b=%d: src %d payload spread %d..%d, want near-even",
					tc.devices, tc.bytes, src, lo, hi)
			}
		}
	}
}

func TestHotDeviceSlowsCompletion(t *testing.T) {
	cl := hw.V100Cluster(2)
	n := netsim.New(cl)
	g := cl.TotalGPUs()
	uniform := netsim.UniformMatrix(g, 16<<20)
	tU, err := n.AllToAllUs(uniform)
	if err != nil {
		t.Fatal(err)
	}
	// Same total volume, but half of every device's traffic targets device
	// 8 (on the other node for src < 8): a pure ingress hotspot.
	hot := netsim.UniformMatrix(g, 16<<20)
	for src := range hot {
		moved := int64(0)
		for dst := range hot[src] {
			if dst == 8 || dst == src {
				continue
			}
			take := hot[src][dst] / 2
			hot[src][dst] -= take
			moved += take
		}
		hot[src][8] += moved
	}
	tH, err := n.AllToAllUs(hot)
	if err != nil {
		t.Fatal(err)
	}
	if tH <= tU*1.5 {
		t.Errorf("hotspot a2a %v us should be much slower than uniform %v us", tH, tU)
	}
}

func TestEmptyAndErrors(t *testing.T) {
	cl := hw.V100Cluster(2)
	n := netsim.New(cl)
	g := cl.TotalGPUs()
	zero := netsim.UniformMatrix(g, 0)
	if got, err := n.AllToAllUs(zero); err != nil || got != 0 {
		t.Errorf("empty a2a = %v, %v; want 0, nil", got, err)
	}
	if _, err := n.AllToAllUs(netsim.UniformMatrix(4, 1<<20)); err == nil {
		t.Error("wrong matrix size must error")
	}
	bad := netsim.UniformMatrix(g, 1<<20)
	bad[0][1] = -5
	if _, err := n.AllToAllUs(bad); err == nil {
		t.Error("negative payload must error")
	}
	ragged := netsim.UniformMatrix(g, 1<<20)
	ragged[3] = ragged[3][:4]
	if _, err := n.AllToAllUs(ragged); err == nil {
		t.Error("ragged matrix must error")
	}
}

func TestScaleCounts(t *testing.T) {
	counts := [][]int{{0, 3}, {3, 0}}
	m, err := netsim.ScaleCounts(counts, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 150 || m[1][0] != 150 || m[0][0] != 0 {
		t.Errorf("ScaleCounts = %v", m)
	}
	// Fractional bytes round to nearest instead of truncating toward zero.
	m, err = netsim.ScaleCounts([][]int{{0, 1}, {1, 0}}, 1, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 1 {
		t.Errorf("0.75 bytes rounded to %d, want 1", m[0][1])
	}
}

func TestScaleCountsValidates(t *testing.T) {
	if _, err := netsim.ScaleCounts([][]int{{0, 1}, {1}}, 4, 1); err == nil {
		t.Error("ragged counts must error")
	}
	if _, err := netsim.ScaleCounts([][]int{{0, -1}, {1, 0}}, 4, 1); err == nil {
		t.Error("negative count must error")
	}
	if _, err := netsim.ScaleCounts([][]int{{0, 1}, {1, 0}}, -4, 1); err == nil {
		t.Error("negative perTokenBytes must error")
	}
	if _, err := netsim.ScaleCounts([][]int{{0, 1}, {1, 0}}, 4, -1); err == nil {
		t.Error("negative factor must error")
	}
	if _, err := netsim.ScaleCounts([][]int{{0, 1}, {1, 0}}, 4, math.NaN()); err == nil {
		t.Error("NaN factor must error")
	}
}

func TestRoutingProfiles(t *testing.T) {
	const d = 16
	uni := netsim.UniformProfile(d)
	if uni.Devices() != d {
		t.Fatalf("Devices() = %d", uni.Devices())
	}
	if z := netsim.ZipfProfile(d, 0); z.Fingerprint() != uni.Fingerprint() {
		t.Error("Zipf alpha=0 must equal the uniform profile")
	}
	if netsim.ZipfProfile(d, 1.5).Fingerprint() == uni.Fingerprint() {
		t.Error("skewed profile must fingerprint differently from uniform")
	}
	// Ingress concentration orders as expected.
	u, z, h := uni.MaxIngressShare(), netsim.ZipfProfile(d, 1.5).MaxIngressShare(),
		netsim.HotExpertProfile(d, 0.6).MaxIngressShare()
	if !(u < z && u < h) {
		t.Errorf("ingress shares: uniform %.3f, zipf %.3f, hot %.3f", u, z, h)
	}
	if h < 0.55 {
		t.Errorf("hot-expert profile ingress share %.3f, want ~0.6", h)
	}

	// A uniform profile's matrix matches UniformMatrix up to rounding.
	bytes := int64(8 << 20)
	pm, um := uni.Matrix(bytes), netsim.UniformMatrix(d, bytes)
	for src := range pm {
		for dst := range pm[src] {
			if diff := pm[src][dst] - um[src][dst]; diff > 1 || diff < -1 {
				t.Fatalf("uniform profile matrix[%d][%d]=%d vs UniformMatrix %d",
					src, dst, pm[src][dst], um[src][dst])
			}
		}
	}
}

func TestProfileFromCounts(t *testing.T) {
	if _, err := netsim.ProfileFromCounts(nil); err == nil {
		t.Error("empty counts must error")
	}
	if _, err := netsim.ProfileFromCounts([][]int{{0, 1}, {1}}); err == nil {
		t.Error("ragged counts must error")
	}
	if _, err := netsim.ProfileFromCounts([][]int{{0, -1}, {0, 0}}); err == nil {
		t.Error("negative counts must error")
	}
	if _, err := netsim.ProfileFromCounts([][]int{{0, 0}, {0, 0}}); err == nil {
		t.Error("all-zero counts must error")
	}
	p, err := netsim.ProfileFromCounts([][]int{{2, 2}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := netsim.ProfileFromCounts([][]int{{2, 2}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != q.Fingerprint() {
		t.Error("identical counts must share a fingerprint")
	}
}

// Property: completion time is monotone under adding traffic.
func TestMonotoneUnderTrafficProperty(t *testing.T) {
	cl := hw.V100Cluster(2)
	n := netsim.New(cl)
	g := cl.TotalGPUs()
	f := func(src, dst uint8, extra uint32) bool {
		m := netsim.UniformMatrix(g, 8<<20)
		base, err := n.AllToAllUs(m)
		if err != nil {
			return false
		}
		s, d := int(src)%g, int(dst)%g
		if s == d {
			return true
		}
		m[s][d] += int64(extra)
		bigger, err := n.AllToAllUs(m)
		if err != nil {
			return false
		}
		return bigger >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: permuting device labels within a node leaves completion time
// unchanged (intra-node symmetry).
func TestIntraNodeSymmetryProperty(t *testing.T) {
	cl := hw.V100Cluster(2)
	n := netsim.New(cl)
	g := cl.TotalGPUs()
	f := func(a, b uint8) bool {
		x, y := int(a)%8, int(b)%8 // both on node 0
		m := netsim.UniformMatrix(g, 8<<20)
		m[0][5] += 12345 // some asymmetry elsewhere
		t1, err := n.AllToAllUs(m)
		if err != nil {
			return false
		}
		// Swap rows and columns x<->y.
		m[x], m[y] = m[y], m[x]
		for src := range m {
			m[src][x], m[src][y] = m[src][y], m[src][x]
		}
		t2, err := n.AllToAllUs(m)
		if err != nil {
			return false
		}
		return math.Abs(t1-t2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllToAllMatrix(b *testing.B) {
	n := netsim.New(hw.V100Cluster(8))
	m := netsim.UniformMatrix(64, 16<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.AllToAllUs(m); err != nil {
			b.Fatal(err)
		}
	}
}

func mustTopo(t *testing.T, c hw.Cluster, topo hw.Topology) hw.Cluster {
	t.Helper()
	ct, err := c.WithTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestTopologySpineSlowsInterRackTraffic(t *testing.T) {
	flat := hw.V100Cluster(4)
	over := mustTopo(t, flat, hw.Topology{NodesPerRack: 2, Oversubscription: 4})
	m := netsim.UniformMatrix(flat.TotalGPUs(), 8<<20)
	flatUs, err := netsim.New(flat).AllToAllUs(m)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := netsim.New(over).AllToAllTimed(m)
	if err != nil {
		t.Fatal(err)
	}
	if timed.TotalUs <= flatUs {
		t.Errorf("oversubscribed spine: %v us, flat %v us — spine must slow the uniform a2a", timed.TotalUs, flatUs)
	}
	if timed.Bottleneck != hw.TierSpine {
		t.Errorf("bottleneck = %v, want spine (uniform traffic, 4:1 oversub)", timed.Bottleneck)
	}
	// Half of each device's inter-node bytes cross the rack boundary at a
	// quarter of the NIC share: the spine bound alone should approach 2x the
	// NIC bound (4x slower on half the bytes, modulo the message-size ramp).
	if timed.TierUs[hw.TierSpine] <= timed.TierUs[hw.TierNIC] {
		t.Error("spine drain bound must exceed the NIC bound under 4:1 oversubscription")
	}
}

func TestTopologyDegenerateFormsMatchFlat(t *testing.T) {
	flat := hw.V100Cluster(4)
	m := netsim.UniformMatrix(flat.TotalGPUs(), 8<<20)
	want, err := netsim.New(flat).AllToAllUs(m)
	if err != nil {
		t.Fatal(err)
	}
	// A non-blocking spine and a single all-covering rack must both price
	// exactly like the flat fabric.
	for _, topo := range []hw.Topology{
		{NodesPerRack: 1},                        // per-node racks, 1:1 spine
		{NodesPerRack: 4, Oversubscription: 16},  // one rack, no spine pairs
		{NodesPerRack: 99, Oversubscription: 16}, // clamped to one rack
	} {
		got, err := netsim.New(mustTopo(t, flat, topo)).AllToAllUs(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("topology %+v: %v us, flat %v us — degenerate topology must match flat exactly", topo, got, want)
		}
	}
}

func TestTopologyIntraRackTrafficUnaffected(t *testing.T) {
	// Traffic that never crosses a rack boundary prices identically however
	// oversubscribed the spine is.
	flat := hw.V100Cluster(4)
	over := mustTopo(t, flat, hw.Topology{NodesPerRack: 2, Oversubscription: 8})
	g := flat.TotalGPUs()
	m := make([][]int64, g)
	for src := range m {
		m[src] = make([]int64, g)
	}
	// Rack 0 holds ranks 0..15: a dense exchange within it.
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src != dst {
				m[src][dst] = 1 << 20
			}
		}
	}
	flatUs, err := netsim.New(flat).AllToAllUs(m)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := netsim.New(over).AllToAllTimed(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(timed.TotalUs-flatUs)/flatUs > 1e-9 {
		t.Errorf("intra-rack exchange: %v us with spine, %v us flat — must match", timed.TotalUs, flatUs)
	}
	if timed.TierUs[hw.TierSpine] != 0 {
		t.Errorf("spine bound = %v us for intra-rack traffic, want 0", timed.TierUs[hw.TierSpine])
	}
}

func TestTopologyOversubMonotone(t *testing.T) {
	// Completion time must be non-decreasing in the oversubscription factor.
	flat := hw.V100Cluster(4)
	m := netsim.UniformMatrix(flat.TotalGPUs(), 4<<20)
	prev := 0.0
	for i, oversub := range []float64{1, 2, 4, 8, 16} {
		us, err := netsim.New(mustTopo(t, flat, hw.Topology{NodesPerRack: 1, Oversubscription: oversub})).AllToAllUs(m)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && us < prev {
			t.Errorf("oversub %g: %v us < %v us at the previous factor", oversub, us, prev)
		}
		prev = us
	}
}

// The timed drain loop runs on pooled arenas and must not allocate in
// steady state (DESIGN.md §13); the ratchet in perf_floor.txt pins it at 0.
func TestDrainZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	n := netsim.New(hw.V100Cluster(2))
	m := netsim.ZipfProfile(16, 1.2).Matrix(16 << 20)
	if _, err := n.AllToAllTimed(m); err != nil { // warm the pool
		t.Fatal(err)
	}
	sink := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		timing, err := n.AllToAllTimed(m)
		if err != nil {
			t.Fatal(err)
		}
		sink += timing.TotalUs
	}); allocs != 0 {
		t.Errorf("timed drain allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// The argmax variant is the same single pass over the matrix and must stay
// allocation-free too.
func TestDrainArgmaxZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	n := netsim.New(hw.V100Cluster(2))
	m := netsim.HotExpertProfile(16, 0.6).Matrix(8 << 20)
	if _, _, err := n.AllToAllTimedArgmax(m); err != nil {
		t.Fatal(err)
	}
	sink := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		timing, _, err := n.AllToAllTimedArgmax(m)
		if err != nil {
			t.Fatal(err)
		}
		sink += timing.TotalUs
	}); allocs != 0 {
		t.Errorf("argmax drain allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// BenchmarkNetsimDrain measures one timed replay of a skewed 16-device
// matrix — the link-level evaluation the skew tables are built from.
// Steady state must be 0 allocs/op (ratcheted by perf_floor.txt).
func BenchmarkNetsimDrain(b *testing.B) {
	n := netsim.New(hw.V100Cluster(2))
	m := netsim.ZipfProfile(16, 1.2).Matrix(16 << 20)
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timing, err := n.AllToAllTimed(m)
		if err != nil {
			b.Fatal(err)
		}
		sink += timing.TotalUs
	}
	_ = sink
}
