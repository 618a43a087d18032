package cost

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/netsim"
	"lancet/internal/race"
)

// skewProfiles enumerates the skewed routing shapes the table must price:
// the Zipf tail and single-hot-expert generators across their interesting
// parameter ranges (the same families the session's workload knobs produce).
func skewProfiles(devices int) map[string]*netsim.RoutingProfile {
	return map[string]*netsim.RoutingProfile{
		"zipf-0.5":  netsim.ZipfProfile(devices, 0.5),
		"zipf-1.0":  netsim.ZipfProfile(devices, 1.0),
		"zipf-1.2":  netsim.ZipfProfile(devices, 1.2),
		"zipf-2.0":  netsim.ZipfProfile(devices, 2.0),
		"hot-0.3":   netsim.HotExpertProfile(devices, 0.3),
		"hot-0.6":   netsim.HotExpertProfile(devices, 0.6),
		"hot-0.9":   netsim.HotExpertProfile(devices, 0.9),
		"uniform":   netsim.UniformProfile(devices),
		"hot-0.999": netsim.HotExpertProfile(devices, 0.999),
	}
}

// The pinned equivalence bound of the interpolation table (DESIGN.md §13):
// every lookup stays within 2% of a full link-level replay of the same
// payload. The probe ladder deliberately lands between the table's octave
// points (odd offsets, primes) and beyond its last point (slope
// extrapolation).
func TestSkewTableMatchesExactReplayWithinBound(t *testing.T) {
	m := newTestModel()
	exact := netsim.New(m.Cluster)
	probes := []int64{
		1 << 10, 1537, 5000, 12345, 100_000, 777_777,
		1 << 20, 3<<20 + 55_555, 16<<20 + 1, 100 << 20,
		1 << 30, maxProfiledBytes, maxProfiledBytes * 3,
	}
	for name, prof := range skewProfiles(m.Cluster.TotalGPUs()) {
		for _, bytes := range probes {
			got := m.AllToAllSkewedUs(bytes, prof)
			want, err := exact.AllToAllUs(prof.Matrix(bytes))
			if err != nil {
				t.Fatalf("%s: exact replay: %v", name, err)
			}
			if want == 0 {
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 0.02 {
				t.Errorf("%s bytes=%d: table %v us vs exact %v us (%.3f%% apart)",
					name, bytes, got, want, rel*100)
			}
		}
	}
}

// Below the table floor, matrix rounding makes interpolation meaningless;
// the price must be the exact replay.
func TestSkewedBelowTableFloorIsExact(t *testing.T) {
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	exact := netsim.New(m.Cluster)
	for _, bytes := range []int64{1, 100, skewTableMinBytes - 1} {
		got := m.AllToAllSkewedUs(bytes, prof)
		want, err := exact.AllToAllUs(prof.Matrix(bytes))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bytes=%d: got %v, want exact replay %v", bytes, got, want)
		}
	}
}

// The pricer is the one implementation of both all-to-all prices:
// AllToAllSkewedUs must return what SkewedUs returns, and PartitionedUs
// must be the uniform table queried at bytes/k.
func TestPricerMatchesModelPaths(t *testing.T) {
	m := newTestModel()
	prof := netsim.HotExpertProfile(m.Cluster.TotalGPUs(), 0.6)
	pr := m.NewA2APricer(prof)
	if !pr.Profiled() {
		t.Fatal("pricer with profile must report Profiled")
	}
	for _, bytes := range []int64{0, 512, 4 << 10, 1 << 20, 48 << 20} {
		if got, want := pr.SkewedUs(bytes), m.AllToAllSkewedUs(bytes, prof); got != want {
			t.Errorf("SkewedUs(%d) = %v, want %v", bytes, got, want)
		}
	}
	g := m.Cluster.TotalGPUs()
	for _, k := range []int{1, 2, 4, 8} {
		for _, bytes := range []int64{1 << 20, 48 << 20} {
			if got, want := pr.PartitionedUs(bytes, g, k), interpolate(m.a2aTable, bytes/int64(k)); got != want {
				t.Errorf("PartitionedUs(%d, %d, %d) = %v, want %v", bytes, g, k, got, want)
			}
			// Off-table device counts fall back to the closed form.
			if got, want := pr.PartitionedUs(bytes, 4, k), m.groundAllToAllUs(bytes/int64(k), 4); got != want {
				t.Errorf("PartitionedUs(%d, 4, %d) = %v, want %v", bytes, k, got, want)
			}
		}
	}
	uni := m.NewA2APricer(nil)
	if uni.Profiled() {
		t.Fatal("nil-profile pricer must not report Profiled")
	}
	if got, want := uni.SkewedUs(16<<20), m.AllToAllSkewedUs(16<<20, nil); got != want {
		t.Errorf("nil-profile SkewedUs = %v, want closed form %v", got, want)
	}
}

// The size-exchange memo must reproduce a fresh link-level drain of the
// same uniform matrix, 4 bytes per device pair, byte-identically.
func TestUniformReplayMatchesFreshNetsim(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	want, err := netsim.New(m.Cluster).AllToAllUs(netsim.UniformMatrix(g, int64(g)*4))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SizeExchangeUs(); got != want {
		t.Errorf("SizeExchangeUs() = %v, want %v", got, want)
	}
	if got := m.SizeExchangeUs(); got != want {
		t.Errorf("memoized SizeExchangeUs() = %v, want %v", got, want)
	}
}

// The batched lookup is the DP's per-candidate hot path: after the table is
// built it must not allocate (DESIGN.md §13's ratchet pins this at 0).
func TestBatchLookupZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	pr := m.NewA2APricer(prof)
	g := m.Cluster.TotalGPUs()
	sink := 0.0
	pr.SkewedUs(13 << 20) // warm
	if allocs := testing.AllocsPerRun(100, func() {
		sink += pr.SkewedUs(13 << 20)
		sink += pr.SkewedUs(3<<20 + 7)
		sink += pr.PartitionedUs(48<<20, g, 4)
	}); allocs != 0 {
		t.Errorf("batched lookup allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// BenchmarkCostBatchLookup measures the batched pricer pricing one DP
// window's worth of all-to-all candidates (the per-candidate cost the
// partition sweep pays millions of times). Steady state must be 0 allocs/op
// — the floor in perf_floor.txt ratchets it exactly.
func BenchmarkCostBatchLookup(b *testing.B) {
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	pr := m.NewA2APricer(prof)
	g := m.Cluster.TotalGPUs()
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 8; k++ {
			sink += pr.SkewedUs(48 << 20 / int64(k))
			sink += pr.PartitionedUs(48<<20, g, k)
		}
	}
	_ = sink
}

// BenchmarkSkewTableBuild measures building one skew interpolation table
// from scratch: the exact replays of a 64×V100 Zipf-1.2 profile along the
// refined byte ladder, the layer planbench reports as cost.skew_table_ms.
// perf_floor.txt ratchets it.
func BenchmarkSkewTableBuild(b *testing.B) {
	m := NewModel(hw.V100Cluster(8))
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.buildSkewTable(prof)
	}
}

// Regression guard: PartitionedUs is PredictComm at bytes/k, and neither
// touches the memo counters.
func TestPricerDoesNotDisturbCommCache(t *testing.T) {
	m := newTestModel()
	before := m.Stats()
	pr := m.NewA2APricer(nil)
	pr.PartitionedUs(16<<20, m.Cluster.TotalGPUs(), 2)
	if after := m.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("PartitionedUs moved the memo counters: %+v -> %+v", before, after)
	}
	want := m.PredictComm(ir.OpAllToAll, 8<<20, m.Cluster.TotalGPUs())
	if got := pr.PartitionedUs(16<<20, m.Cluster.TotalGPUs(), 2); got != want {
		t.Errorf("PartitionedUs = %v, want PredictComm value %v", got, want)
	}
}

// TestInvalidateProfile pins the drift loop's memo-invalidation contract
// (DESIGN.md §16): dropping a fingerprint removes its interpolation table —
// and nothing else — while re-querying the same profile afterward rebuilds
// identical prices, on the table path and below the table floor alike.
func TestInvalidateProfile(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	old := netsim.ZipfProfile(g, 1.4)
	keep := netsim.HotExpertProfile(g, 0.6)

	// Price each profile on the table path and below the table floor.
	wantOld := m.AllToAllSkewedUs(32<<20, old)
	wantOldExact := m.AllToAllSkewedUs(512, old)
	wantKeep := m.AllToAllSkewedUs(32<<20, keep)
	wantKeepExact := m.AllToAllSkewedUs(512, keep)

	m.InvalidateProfile(old.Fingerprint())

	_, oldTab := m.skewTabs.Get(old.Fingerprint())
	_, keepTab := m.skewTabs.Get(keep.Fingerprint())
	if oldTab {
		t.Error("invalidated fingerprint still has an interpolation table")
	}
	if !keepTab {
		t.Error("invalidation evicted an unrelated profile's table")
	}

	// Pricing is pure: a rebuild after invalidation reproduces the values.
	if got := m.AllToAllSkewedUs(32<<20, old); got != wantOld {
		t.Errorf("rebuilt table price %v != original %v", got, wantOld)
	}
	if got := m.AllToAllSkewedUs(512, old); got != wantOldExact {
		t.Errorf("rebuilt exact price %v != original %v", got, wantOldExact)
	}
	if got := m.AllToAllSkewedUs(32<<20, keep); got != wantKeep {
		t.Errorf("surviving table price %v != original %v", got, wantKeep)
	}
	if got := m.AllToAllSkewedUs(512, keep); got != wantKeepExact {
		t.Errorf("surviving exact price %v != original %v", got, wantKeepExact)
	}
}

// TestSkewTableCap pins the registry's bound: pricing twice the cap in
// distinct profiles leaves at most skewTableCap tables, a profile priced
// at every step survives as the most recently used, and the first profile,
// evicted as the least recently used, prices bit-identically after its
// rebuild.
func TestSkewTableCap(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	first := netsim.ZipfProfile(g, 0.5)
	hot := netsim.HotExpertProfile(g, 0.6)
	wantFirst := m.AllToAllSkewedUs(32<<20, first)
	wantHot := m.AllToAllSkewedUs(32<<20, hot)
	for i := range 2 * skewTableCap {
		m.AllToAllSkewedUs(32<<20, netsim.ZipfProfile(g, 0.6+0.05*float64(i)))
		if got := m.AllToAllSkewedUs(32<<20, hot); got != wantHot {
			t.Fatalf("step %d: hot profile prices %v, want %v", i, got, wantHot)
		}
		if n := m.skewTabs.Len(); n > skewTableCap {
			t.Fatalf("step %d: %d skew tables, cap %d", i, n, skewTableCap)
		}
	}
	_, firstTab := m.skewTabs.Get(first.Fingerprint())
	_, hotTab := m.skewTabs.Get(hot.Fingerprint())
	if firstTab {
		t.Error("the least recently used table survived twice the cap in newer ones")
	}
	if !hotTab {
		t.Error("the most recently used table was evicted")
	}
	misses := m.Stats().Misses
	if got := m.AllToAllSkewedUs(32<<20, first); got != wantFirst {
		t.Errorf("rebuilt table prices %v, original %v", got, wantFirst)
	}
	if got := m.Stats().Misses; got != misses+1 {
		t.Errorf("re-pricing the evicted profile counted %d misses, want 1 (a rebuild)", got-misses)
	}
}

// TestSkewTableGolden pins every point of the skew interpolation tables
// built for 16-, 32- and 64-GPU V100 fleets under five routing shapes, by a
// SHA-256 of their (bytes, microseconds) pairs. The points are exact
// link-level replays at the refined byte ladder, so this also pins the
// netsim drain and its bounding-link argmax.
func TestSkewTableGolden(t *testing.T) {
	golden := map[string]string{
		"16/zipf-0.6": "5f068ce876520aea6ac307de6a7cc83755d7fb37115bd33115d5edf3cade43c4",
		"16/zipf-1.2": "1acaf399dc5f6156b2dd3dd50e0404190d4852ff93cf00328db2b48b12518daf",
		"16/zipf-2.0": "d97d16bc585c8adfc6c11bdd2dc618482e6f6189ca6d6601a9030aef699600cb",
		"16/hot-0.3":  "bccf3fae5c59d6570fbaeff27fcea29624e4a8801aa8fc13ebf45bf77be51d69",
		"16/uniform":  "8ea32213d38e6caaa53b1aec1c5c0e678e7f4360f91cd9b30080517f453f6132",
		"32/zipf-0.6": "e3c703c84154f1f70c1b0f23181cc7cdce3aa7dd39769608b14317189432af57",
		"32/zipf-1.2": "fd130a796dd8820848d32c2f04fc2a621bdbbd9d5875713ca36db91376cb0cd8",
		"32/zipf-2.0": "91d7191b52bddba337d79e7ba1ddb6d749bfbe52e4b50765f9a3cd709a0dea9a",
		"32/hot-0.3":  "761fef88ed353908d88321f3639f87be52dd57c2dc8560179cdb9adb99482fa7",
		"32/uniform":  "5a524851d184f0b14c50bbde45702e1085df6c49a4c3c874c3abceeb7fdc3abf",
		"64/zipf-0.6": "b73d80996ac4bb8d26b1b3b924482754f5ab2fe39a86d4541f8b3ccecb6700ee",
		"64/zipf-1.2": "5a0644673669b03ee649cfd842059b6c50d34fdfc332a4b61822d0596a60a8e7",
		"64/zipf-2.0": "57a39fe30e21cc294f2c1804080f2199482e3c71eaa8789a7c2c9accf8b739eb",
		"64/hot-0.3":  "1082fbc3820d8a1773e03a70d761e2812d2b475f5040a24ecf7c7734864d93d3",
		"64/uniform":  "d68966eb20de2ea69848797e2228137ff90483c7f1823123bea654a4c17120ff",
	}
	for _, nodes := range []int{2, 4, 8} {
		m := NewModel(hw.V100Cluster(nodes))
		g := m.Cluster.TotalGPUs()
		for _, p := range []struct {
			name string
			prof *netsim.RoutingProfile
		}{
			{"zipf-0.6", netsim.ZipfProfile(g, 0.6)},
			{"zipf-1.2", netsim.ZipfProfile(g, 1.2)},
			{"zipf-2.0", netsim.ZipfProfile(g, 2.0)},
			{"hot-0.3", netsim.HotExpertProfile(g, 0.3)},
			{"uniform", netsim.UniformProfile(g)},
		} {
			h := sha256.New()
			for _, pt := range m.buildSkewTable(p.prof).points {
				fmt.Fprintf(h, "%d %x\n", pt.bytes, math.Float64bits(pt.us))
			}
			key := fmt.Sprintf("%d/%s", g, p.name)
			if got, want := hex.EncodeToString(h.Sum(nil)), golden[key]; got != want {
				t.Errorf("%s: skew table hash %s, want %s", key, got, want)
			}
		}
	}
}
