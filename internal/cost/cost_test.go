package cost

import (
	"math"
	"testing"
	"testing/quick"

	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

func newTestModel() *Model { return NewModel(hw.V100Cluster(2)) }

func mm(flops float64) *ir.Instr {
	return &ir.Instr{Op: ir.OpMatMul, FLOPs: flops}
}

func TestComputeMonotonicInWork(t *testing.T) {
	m := newTestModel()
	prev := 0.0
	for _, f := range []float64{1e6, 1e8, 1e9, 1e10, 1e11} {
		cur := m.GroundComputeUs(mm(f))
		if cur <= prev {
			t.Errorf("compute time not increasing: %v FLOPs -> %v us (prev %v)", f, cur, prev)
		}
		prev = cur
	}
}

func TestKernelLaunchFloor(t *testing.T) {
	m := newTestModel()
	tiny := m.GroundComputeUs(mm(1))
	if tiny < m.Cluster.Node.GPU.KernelLaunchUs {
		t.Errorf("tiny kernel %v us below launch overhead", tiny)
	}
}

// Partitioning an op into k parts must cost more in total than the whole op
// (launch overhead + lower efficiency) — the penalty driving Fig. 6.
func TestPartitionOverhead(t *testing.T) {
	m := newTestModel()
	whole := m.GroundComputeUs(mm(1e10))
	for _, k := range []int{2, 4, 8} {
		part := m.GroundComputeUs(mm(1e10 / float64(k)))
		if float64(k)*part <= whole {
			t.Errorf("k=%d: total partitioned time %v <= whole %v", k, float64(k)*part, whole)
		}
	}
}

func TestEfficiencyRampsWithSize(t *testing.T) {
	m := newTestModel()
	small := m.effFLOPSAt(1e7, m.Cluster.Node.GPU.PeakTFLOPS)
	large := m.effFLOPSAt(1e12, m.Cluster.Node.GPU.PeakTFLOPS)
	if small >= large {
		t.Errorf("efficiency should grow with kernel size: %v >= %v", small, large)
	}
	peak := m.Cluster.Node.GPU.PeakTFLOPS * 1e12 * m.Cluster.Node.GPU.MaxUtilization
	if large > peak {
		t.Errorf("efficiency exceeds calibrated max: %v > %v", large, peak)
	}
}

func TestA2AGroundTruth(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	if got := m.groundAllToAllUs(0, g); got != 0 {
		t.Errorf("empty a2a should be free, got %v", got)
	}
	if got := m.groundAllToAllUs(1<<20, 1); got != 0 {
		t.Errorf("single-device a2a should be free, got %v", got)
	}
	small := m.groundAllToAllUs(1<<16, g)
	big := m.groundAllToAllUs(1<<26, g)
	if small >= big {
		t.Errorf("a2a not monotonic: %v >= %v", small, big)
	}
}

func TestA2AFasterOnA100Cluster(t *testing.T) {
	v := NewModel(hw.V100Cluster(4))
	a := NewModel(hw.A100Cluster(4))
	bytes := int64(16 << 20)
	tv := v.groundAllToAllUs(bytes, 32)
	ta := a.groundAllToAllUs(bytes, 32)
	if ta >= tv {
		t.Errorf("p4de (4 NICs) a2a %v us should beat p3dn (1 NIC) %v us", ta, tv)
	}
}

func TestInterpolationAccuracy(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	// The paper observes the interpolated table is an accurate stand-in for
	// profiled collectives; check against ground truth at off-grid sizes.
	for _, b := range []int64{3 << 10, 700 << 10, 5 << 20, 99 << 20} {
		pred := m.PredictComm(ir.OpAllToAll, b, g)
		truth := m.groundAllToAllUs(b, g)
		relErr := math.Abs(pred-truth) / truth
		if relErr > 0.05 {
			t.Errorf("bytes=%d: interpolation error %.2f%% > 5%%", b, relErr*100)
		}
	}
}

func TestInterpolationEdges(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	below := m.PredictComm(ir.OpAllToAll, 100, g)
	if below <= 0 {
		t.Errorf("sub-table size should still cost > 0, got %v", below)
	}
	huge := m.PredictComm(ir.OpAllToAll, 3*maxProfiledBytes, g)
	edge := m.PredictComm(ir.OpAllToAll, maxProfiledBytes, g)
	if huge <= edge {
		t.Errorf("extrapolation should exceed table edge: %v <= %v", huge, edge)
	}
}

func TestProfileCacheReuse(t *testing.T) {
	m := newTestModel()
	in := mm(12345678)
	t1 := m.PredictInstr(in)
	before := m.Stats().ProfiledOps
	t2 := m.PredictInstr(in)
	if t1 != t2 {
		t.Errorf("cached profile changed: %v vs %v", t1, t2)
	}
	if m.Stats().ProfiledOps != before {
		t.Error("second identical prediction should hit the cache")
	}
	// A clearly different shape must profile anew.
	m.PredictInstr(mm(99e9))
	if m.Stats().ProfiledOps != before+1 {
		t.Error("different shape should miss the cache")
	}
}

func TestCacheStatsCounters(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	base := m.Stats()
	if base.Hits != 0 || base.Misses != 0 {
		t.Fatalf("fresh model should start with zero counters, got %+v", base)
	}

	// Communication predictions interpolate the table on every call: they
	// are not memoized, so they leave the counters alone.
	t1 := m.PredictComm(ir.OpAllToAll, 5<<20, g)
	t2 := m.PredictComm(ir.OpAllToAll, 5<<20, g)
	if s := m.Stats(); s != base {
		t.Errorf("comm predictions moved the memo counters: %+v", s)
	}
	if t1 != t2 {
		t.Errorf("repeat comm prediction changed: %v vs %v", t1, t2)
	}

	// A compute profile misses once, bumping ProfiledOps, then hits.
	in := mm(3e9)
	m.PredictInstr(in)
	m.PredictInstr(in)
	s := m.Stats()
	if s.ProfiledOps != 1 {
		t.Errorf("one distinct shape profiled, got %d", s.ProfiledOps)
	}
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("want 1 miss / 1 hit, got %+v", s)
	}

	// A skew table's build is a miss and each reuse a hit; the size
	// exchange misses once, then hits.
	prof := netsim.ZipfProfile(g, 1.2)
	m.AllToAllSkewedUs(8<<20, prof)
	m.AllToAllSkewedUs(4<<20, prof)
	m.SizeExchangeUs()
	m.SizeExchangeUs()
	s = m.Stats()
	if s.Misses != 3 || s.Hits != 3 {
		t.Errorf("want 3 misses / 3 hits total, got %+v", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Errorf("hit rate %v, want 0.5", hr)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestPredictCommDistinctDeviceCountsCached(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	// Off-table device counts fall back to ground truth, on every call.
	odd := m.PredictComm(ir.OpAllToAll, 1<<20, g+2)
	if odd != m.groundCommUs(ir.OpAllToAll, 1<<20, g+2) {
		t.Error("off-table group size should price at ground truth")
	}
	if again := m.PredictComm(ir.OpAllToAll, 1<<20, g+2); again != odd {
		t.Errorf("repeat off-table prediction changed: %v vs %v", again, odd)
	}
	if s := m.Stats(); s != (CacheStats{}) {
		t.Errorf("comm predictions moved the memo counters: %+v", s)
	}
}

func TestPredictionNearGroundTruth(t *testing.T) {
	m := newTestModel()
	in := mm(5e9)
	pred := m.PredictInstr(in)
	truth := m.GroundComputeUs(in)
	if rel := math.Abs(pred-truth) / truth; rel > 0.02 {
		t.Errorf("profile noise %v > 2%%", rel)
	}
}

func TestStaticShapeApproximation(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	bytes := int64(32 << 20)
	pr := m.NewA2APricer(nil)
	whole := pr.PartitionedUs(bytes, g, 1)
	if diff := math.Abs(whole - m.PredictComm(ir.OpAllToAll, bytes, g)); diff > 1e-9 {
		t.Errorf("n=1 should equal unpartitioned prediction (diff %v)", diff)
	}
	quarter := pr.PartitionedUs(bytes, g, 4)
	if quarter >= whole {
		t.Error("partitioned micro-a2a should be cheaper than the whole")
	}
	if 4*quarter <= whole {
		t.Error("4 micro-a2as should cost more in total than one big a2a (latency overhead)")
	}
}

func TestIrregularA2AIncludesSizeExchange(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	bytes := int64(8 << 20)
	irr := m.IrregularA2AUs(bytes, g)
	plain := m.groundAllToAllUs(bytes, g)
	if irr <= plain {
		t.Error("irregular a2a must include the size-exchange phase")
	}
	// But moving less real data must beat the padded exchange.
	if m.IrregularA2AUs(bytes/4, g) >= plain {
		t.Error("irregular a2a with 25% payload should beat full padded a2a")
	}
}

func TestAllReduceGroundTruth(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	small := m.groundAllReduceUs(1<<16, g)
	big := m.groundAllReduceUs(1<<26, g)
	if small >= big {
		t.Error("allreduce not monotonic in volume")
	}
	// More nodes => inter-node ring factor (n-1)/n grows.
	m8 := NewModel(hw.V100Cluster(8))
	if m.groundAllReduceUs(1<<26, 16) >= m8.groundAllReduceUs(1<<26, 64) {
		t.Error("allreduce should slow down with more nodes")
	}
}

func TestComputeScale(t *testing.T) {
	fast := newTestModel()
	slow := fast.WithComputeScale(0.9)
	in := mm(1e10)
	if slow.GroundComputeUs(in) <= fast.GroundComputeUs(in) {
		t.Error("a compute scale < 1 must slow compute down")
	}
}

func TestActualInstrDispatch(t *testing.T) {
	m := newTestModel()
	comm := &ir.Instr{Op: ir.OpAllToAll, Bytes: 1 << 20, CommDevices: 16}
	if m.ActualInstr(comm) != m.groundAllToAllUs(1<<20, 16) {
		t.Error("ActualInstr(a2a) should be ground truth")
	}
	comp := mm(1e9)
	if m.ActualInstr(comp) != m.GroundComputeUs(comp) {
		t.Error("ActualInstr(compute) should be ground truth")
	}
}

func TestPredictCommPanicsOnComputeOp(t *testing.T) {
	m := newTestModel()
	defer func() {
		if recover() == nil {
			t.Error("PredictComm on a compute op must panic")
		}
	}()
	m.PredictComm(ir.OpMatMul, 1024, 16)
}

// Property: interpolation is monotonic in bytes for the profiled tables.
func TestInterpolationMonotonicProperty(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	f := func(a, b uint32) bool {
		x, y := int64(a)+1, int64(b)+1
		if x > y {
			x, y = y, x
		}
		return m.PredictComm(ir.OpAllToAll, x, g) <= m.PredictComm(ir.OpAllToAll, y, g)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: measurement noise is bounded and deterministic.
func TestMeasurementNoiseProperty(t *testing.T) {
	f := func(op, fl, by uint16) bool {
		k := newProfileKey(&ir.Instr{Op: ir.OpKind(op % 16), FLOPs: float64(fl), Bytes: int64(by)})
		n1, n2 := measurementNoise(k), measurementNoise(k)
		return n1 == n2 && n1 >= -0.015 && n1 <= 0.015
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBucketQuantization(t *testing.T) {
	if bucket(0) != 0 || bucket(-5) != 0 {
		t.Error("non-positive sizes bucket to 0")
	}
	if bucket(1000) != bucket(1010) {
		t.Error("near-identical sizes should share a bucket")
	}
	if bucket(1000) == bucket(4000) {
		t.Error("4x sizes must not share a bucket")
	}
}

func TestAllGatherCheaperThanAllReduce(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	bytes := int64(32 << 20)
	ag := m.groundAllGatherUs(bytes, g)
	ar := m.groundAllReduceUs(bytes, g)
	if ag >= ar {
		t.Errorf("all-gather (%v us) moves half an all-reduce (%v us)", ag, ar)
	}
	// Reduce-scatter and all-gather share pricing.
	rs := m.groundCommUs(ir.OpReduceScatter, bytes, g)
	if rs != ag {
		t.Errorf("reduce-scatter %v != all-gather %v", rs, ag)
	}
	// Interpolated prediction tracks ground truth.
	pred := m.PredictComm(ir.OpAllGather, bytes, g)
	if rel := math.Abs(pred-ag) / ag; rel > 0.05 {
		t.Errorf("all-gather interpolation error %.1f%%", rel*100)
	}
	if m.groundAllGatherUs(0, g) != 0 || m.groundAllGatherUs(bytes, 1) != 0 {
		t.Error("degenerate all-gathers should be free")
	}
}

func TestAllToAllSkewedUniformEquivalence(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	uni := netsim.UniformProfile(g)
	// The documented guarantee: pricing a *uniform* routing profile through
	// the link-level simulator reproduces the closed-form uniform all-to-all
	// within tolerance, across sizes spanning the small-message ramp.
	for _, bytes := range []int64{64 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20} {
		skewPath := m.AllToAllSkewedUs(bytes, uni)
		closed := m.groundAllToAllUs(bytes, g)
		if rel := math.Abs(skewPath-closed) / closed; rel > 0.02 {
			t.Errorf("bytes=%d: skew path %v us vs closed form %v us (%.2f%% apart)",
				bytes, skewPath, closed, rel*100)
		}
	}
}

func TestAllToAllSkewedNilProfileIsClosedForm(t *testing.T) {
	m := newTestModel()
	bytes := int64(16 << 20)
	if got, want := m.AllToAllSkewedUs(bytes, nil), m.groundAllToAllUs(bytes, m.Cluster.TotalGPUs()); got != want {
		t.Errorf("nil profile = %v, want closed form %v", got, want)
	}
}

func TestAllToAllSkewedHotterIsSlower(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	bytes := int64(32 << 20)
	uni := m.AllToAllSkewedUs(bytes, netsim.UniformProfile(g))
	prev := uni
	for _, alpha := range []float64{0.5, 1.0, 2.0} {
		cur := m.AllToAllSkewedUs(bytes, netsim.ZipfProfile(g, alpha))
		if cur < prev {
			t.Errorf("alpha=%g: %v us, want monotone >= %v us", alpha, cur, prev)
		}
		prev = cur
	}
	if prev <= uni*1.5 {
		t.Errorf("Zipf(2) a2a %v us should be much slower than uniform %v us", prev, uni)
	}
}

func TestAllToAllSkewedMemoized(t *testing.T) {
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	first := m.AllToAllSkewedUs(8<<20, prof)
	before := m.Stats()
	second := m.AllToAllSkewedUs(8<<20, prof)
	after := m.Stats()
	if first != second {
		t.Errorf("memoized value changed: %v vs %v", first, second)
	}
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("second call should be a cache hit: %+v -> %+v", before, after)
	}
	// A different profile with the same payload must not share the entry.
	other := m.AllToAllSkewedUs(8<<20, netsim.ZipfProfile(m.Cluster.TotalGPUs(), 2.0))
	if other == first {
		t.Error("distinct profiles must not collide in the cache")
	}
}

func TestValidateProfile(t *testing.T) {
	m := newTestModel()
	if err := m.ValidateProfile(nil); err != nil {
		t.Errorf("nil profile should validate: %v", err)
	}
	if err := m.ValidateProfile(netsim.UniformProfile(m.Cluster.TotalGPUs())); err != nil {
		t.Errorf("matching profile should validate: %v", err)
	}
	if err := m.ValidateProfile(netsim.UniformProfile(4)); err == nil {
		t.Error("mismatched device count must not validate")
	}
	defer func() {
		if recover() == nil {
			t.Error("AllToAllSkewedUs must panic on a mismatched profile")
		}
	}()
	m.AllToAllSkewedUs(1<<20, netsim.UniformProfile(4))
}

// topoCluster builds a V100 cluster with the given rack hierarchy.
func topoCluster(t *testing.T, nodes, nodesPerRack int, oversub float64) hw.Cluster {
	t.Helper()
	c, err := hw.V100Cluster(nodes).WithTopology(hw.Topology{NodesPerRack: nodesPerRack, Oversubscription: oversub})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The ISSUE-pinned equivalence: a degenerate (one-tier) topology must
// reproduce the flat closed forms within 2% across the message-size ramp,
// for every collective the model prices.
func TestTopologyDegenerateReproducesFlatClosedForm(t *testing.T) {
	flat := NewModel(hw.V100Cluster(4))
	degenerates := map[string]*Model{
		"non-blocking spine": NewModel(topoCluster(t, 4, 1, 1)),
		"single rack":        NewModel(topoCluster(t, 4, 4, 8)),
		"zero topology":      NewModel(topoCluster(t, 4, 0, 0)),
	}
	g := flat.Cluster.TotalGPUs()
	ramp := []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
	for name, m := range degenerates {
		for _, b := range ramp {
			for op, f := range map[string]func(*Model) float64{
				"a2a":       func(m *Model) float64 { return m.groundAllToAllUs(b, g) },
				"allreduce": func(m *Model) float64 { return m.groundAllReduceUs(b, g) },
				"allgather": func(m *Model) float64 { return m.groundAllGatherUs(b, g) },
			} {
				got, want := f(m), f(flat)
				if rel := math.Abs(got-want) / want; rel > 0.02 {
					t.Errorf("%s: %s bytes=%d: %v us vs flat %v us (%.2f%% apart, want <= 2%%)",
						name, op, b, got, want, rel*100)
				}
			}
		}
	}
}

func TestTopologyOversubSlowsCollectives(t *testing.T) {
	flat := NewModel(hw.V100Cluster(4))
	over := NewModel(topoCluster(t, 4, 2, 4))
	g := flat.Cluster.TotalGPUs()
	b := int64(32 << 20)
	if fo, oo := flat.groundAllToAllUs(b, g), over.groundAllToAllUs(b, g); oo <= fo {
		t.Errorf("a2a: oversubscribed %v us must exceed flat %v us", oo, fo)
	}
	if fo, oo := flat.groundAllReduceUs(b, g), over.groundAllReduceUs(b, g); oo <= fo {
		t.Errorf("allreduce: oversubscribed %v us must exceed flat %v us", oo, fo)
	}
	if fo, oo := flat.groundAllGatherUs(b, g), over.groundAllGatherUs(b, g); oo <= fo {
		t.Errorf("allgather: oversubscribed %v us must exceed flat %v us", oo, fo)
	}
	// The prediction tables are profiled from the topology-aware ground
	// truth, so interpolated predictions see the spine too.
	if fp, op := flat.PredictComm(ir.OpAllToAll, b, g), over.PredictComm(ir.OpAllToAll, b, g); op <= fp {
		t.Errorf("predicted a2a: oversubscribed %v us must exceed flat %v us", op, fp)
	}
}

func TestA2ABottleneckTierClassification(t *testing.T) {
	b := int64(32 << 20)
	// Multi-node flat V100: the single shared NIC bounds the exchange.
	flat := NewModel(hw.V100Cluster(2))
	if tier := flat.A2ABottleneck(b, flat.Cluster.TotalGPUs()); tier != hw.TierNIC {
		t.Errorf("flat multi-node bottleneck = %v, want nic", tier)
	}
	// Single node: everything moves over NVLink.
	single := NewModel(hw.V100Cluster(1))
	if tier := single.A2ABottleneck(b, single.Cluster.TotalGPUs()); tier != hw.TierNVLink {
		t.Errorf("single-node bottleneck = %v, want nvlink", tier)
	}
	// Oversubscribed per-node racks: the spine dominates.
	over := NewModel(topoCluster(t, 2, 1, 8))
	if tier := over.A2ABottleneck(b, over.Cluster.TotalGPUs()); tier != hw.TierSpine {
		t.Errorf("oversubscribed bottleneck = %v, want spine", tier)
	}
	tiers := over.A2ATierUs(b, over.Cluster.TotalGPUs())
	if tiers[hw.TierSpine] <= tiers[hw.TierNIC] || tiers[hw.TierNIC] <= tiers[hw.TierNVLink] {
		t.Errorf("tier bounds %v not ordered spine > nic > nvlink on an 8:1 p3dn fabric", tiers)
	}
}

// The skewed (link-level) path and the topology closed form must agree on
// uniform traffic over a hierarchical fabric, the same equivalence the flat
// model pins — so planning under a profile and planning under the closed
// form see the same spine.
func TestTopologySkewedUniformEquivalence(t *testing.T) {
	m := NewModel(topoCluster(t, 4, 2, 4))
	g := m.Cluster.TotalGPUs()
	prof := netsim.UniformProfile(g)
	for _, b := range []int64{256 << 10, 4 << 20, 64 << 20} {
		got := m.AllToAllSkewedUs(b, prof)
		want := m.groundAllToAllUs(b, g)
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("bytes=%d: skewed-uniform %v us vs closed form %v us (%.2f%% apart)", b, got, want, rel*100)
		}
	}
}

// The table-driven bucket must agree with the round(2*log2(v)) formula on
// every input: a dense sweep of the small sizes the IR actually produces,
// the exact threshold neighborhoods, and a pseudo-random spray of the full
// int64 range.
func TestBucketTableMatchesFormula(t *testing.T) {
	for v := int64(-2); v <= 1<<20; v++ {
		if got, want := bucket(v), bucketSlow(v); got != want {
			t.Fatalf("bucket(%d) = %d, want %d", v, got, want)
		}
	}
	for _, th := range bucketThresholds {
		for _, v := range []int64{th - 2, th - 1, th, th + 1, th + 2} {
			if got, want := bucket(v), bucketSlow(v); got != want {
				t.Fatalf("bucket(%d) = %d, want %d (threshold %d)", v, got, want, th)
			}
		}
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := int64(x >> 1) // non-negative spray across the full range
		if got, want := bucket(v), bucketSlow(v); got != want {
			t.Fatalf("bucket(%d) = %d, want %d", v, got, want)
		}
	}
}
