// Package cost implements Lancet's performance model (paper Sec. 3): a
// caching operator profiler for compute instructions and a communication
// cost model built by profiling collectives at power-of-two sizes and
// linearly interpolating between them.
//
// Because this reproduction has no GPUs, "profiling" measures an analytic
// ground-truth hardware model instead of real kernels:
//
//   - compute-bound ops follow a roofline with size-dependent efficiency and
//     a fixed kernel-launch overhead (this produces the over-partitioning
//     penalty of paper Fig. 6);
//   - memory-bound ops are priced by bytes moved over device memory;
//   - collectives follow a hierarchical alpha-beta model across NVLink, the
//     per-GPU share of the node NICs and — when the cluster's topology
//     declares racks — the oversubscribed spine between them (DESIGN.md §11).
//
// The distinction between PredictInstr (what the optimizer sees: cached
// one-shot profiles and the interpolated comm table, including the paper's
// static-shape C/n approximation for irregular all-to-alls) and ActualInstr
// (what the simulator executes: exact ground truth over true sizes) is what
// makes the cost-model-accuracy experiment (Fig. 14) meaningful.
package cost

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"lancet/internal/cache"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

// cacheShards stripes the op-profile memo so concurrent predictions from
// parallel experiments or passes rarely contend on the same lock.
const cacheShards = 32

// shard is one lock-striped slice of a memoization map.
type shard[K comparable] struct {
	mu sync.Mutex
	m  map[K]float64
}

//lancet:hotpath
func (s *shard[K]) get(k K) (float64, bool) {
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

func (s *shard[K]) put(k K, v float64) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]float64)
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Model prices instructions on a given cluster. It is safe for concurrent
// use: the op-profile memo is mutex-striped, so parallel experiments
// sharing a model shape scale across cores. It memoizes only what costs
// more to compute than to look up (DESIGN.md §3): op profiles, skew tables
// and uniform replays. Communication predictions interpolate the profiled
// table on every call.
type Model struct {
	// Cluster is the fleet the model prices. It is read-only after
	// NewModel, which derives the model's fleet scalars from it.
	Cluster hw.Cluster

	// fleet holds the cluster scalars every pricing call reads, derived
	// once in NewModel and shared by WithComputeScale.
	fleet fleet

	// computeScale scales compute throughput to model framework codegen
	// differences (e.g. PyTorch kernels vs RAF compiler output). 1.0 is
	// the RAF/Lancet baseline; <1 is slower. WithComputeScale sets it on a
	// model with its own memo.
	computeScale float64

	profiles [cacheShards]shard[profileKey]

	// net is the persistent link-level simulator for the cluster: its
	// pair-tier index and drain arenas are built once and shared by every
	// skewed replay instead of being rebuilt per call (DESIGN.md §13).
	net *netsim.Network

	// skewTabs holds the per-routing-profile interpolation tables that
	// replace repeated netsim replays in AllToAllSkewedUs, keyed by profile
	// fingerprint, built once on first use and bounded at skewTableCap (see
	// skewtable.go).
	skewTabs *cache.Cache[uint64, *skewTable]

	// uniReplay memoizes link-level replays of uniform matrices (the
	// irregular size-exchange phase) on their per-device payload.
	uniReplay shard[int64]

	profiled atomic.Int64 // ground-truth profiles taken (profile-memo misses)
	hits     atomic.Int64 // memo lookups served: profiles, skew tables, uniform replays
	misses   atomic.Int64 // memo lookups computed fresh, skew-table builds included

	a2aTable       []commPoint // per-device bytes -> us, fixed device count
	allreduceTable []commPoint
	allgatherTable []commPoint
	tableDevices   int
}

// fleet is the cluster as the closed forms price it: the values of the
// hw.Cluster accessors they call, computed once per model because the
// accessors take the cluster by value and, on a uniform fleet, build a
// one-class list per call, while pricing runs per instruction.
type fleet struct {
	slowestTFLOPs, fastestTFLOPs float64
	// straggler names the slowest class; mixed reports whether the fleet
	// has one (hw.Cluster.StragglerClass).
	straggler string
	mixed     bool
	// gpusPerNode is the smallest node size, rackNodes the nodes per rack
	// switch and totalGPUs the fleet size.
	gpusPerNode, rackNodes, totalGPUs int
	// Per-GPU bandwidths (GB/s) of the NVLink, NIC and spine tiers.
	nvlinkGBs, nicGBs, spineGBs float64
}

func newFleet(c hw.Cluster) fleet {
	straggler, mixed := c.StragglerClass()
	return fleet{
		slowestTFLOPs: c.SlowestTFLOPs(),
		fastestTFLOPs: c.FastestTFLOPs(),
		straggler:     straggler.Name,
		mixed:         mixed,
		gpusPerNode:   c.MinGPUsPerNode(),
		rackNodes:     c.RackNodes(),
		totalGPUs:     c.TotalGPUs(),
		nvlinkGBs:     c.MinNVLinkGBs(),
		nicGBs:        c.PerGPUNICGBs(),
		spineGBs:      c.SpineGBsPerGPU(),
	}
}

type profileKey struct {
	op       ir.OpKind
	grad     ir.GradKind
	flops    int64 // bucketed
	bytes    int64
	devices  int
	numParts int
}

// fnvMix folds int64 fields into an FNV-1a hash for shard selection.
func fnvMix(vs ...int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func (k profileKey) shard() uint64 {
	return fnvMix(int64(k.op), int64(k.grad), k.flops, k.bytes, int64(k.devices), int64(k.numParts)) % cacheShards
}

type commPoint struct {
	bytes int64
	us    float64
}

// maxProfiledBytes bounds the communication profiling sweep (paper: "up to
// the maximum possible communication used in models").
const maxProfiledBytes = int64(1) << 31 // 2 GiB

// NewModel builds a cost model for the cluster and profiles its
// communication table.
func NewModel(c hw.Cluster) *Model {
	m := &Model{
		Cluster:      c,
		fleet:        newFleet(c),
		computeScale: 1.0,
		net:          netsim.New(c),
		skewTabs:     cache.New[uint64, *skewTable](skewTableCap),
	}
	m.buildCommTables(m.fleet.totalGPUs)
	return m
}

// WithComputeScale returns a model for the same cluster at another compute
// scale. It shares m's fleet scalars, network simulator and profiled
// communication tables, which are read-only once built and do not depend
// on the compute scale, and starts with an empty memo and zeroed counters: a
// memo entry holds the first-priced value of its FLOPs/bytes bucket, so a
// shared memo would make the derived model's prices depend on what m
// priced before.
func (m *Model) WithComputeScale(scale float64) *Model {
	return &Model{
		Cluster:        m.Cluster,
		fleet:          m.fleet,
		computeScale:   scale,
		net:            m.net,
		skewTabs:       cache.New[uint64, *skewTable](skewTableCap),
		a2aTable:       m.a2aTable,
		allreduceTable: m.allreduceTable,
		allgatherTable: m.allgatherTable,
		tableDevices:   m.tableDevices,
	}
}

func (m *Model) buildCommTables(devices int) {
	m.tableDevices = devices
	m.a2aTable = m.a2aTable[:0]
	m.allreduceTable = m.allreduceTable[:0]
	m.allgatherTable = m.allgatherTable[:0]
	for b := int64(1024); b <= maxProfiledBytes; b *= 2 {
		m.a2aTable = append(m.a2aTable, commPoint{b, m.groundAllToAllUs(b, devices)})
		m.allreduceTable = append(m.allreduceTable, commPoint{b, m.groundAllReduceUs(b, devices)})
		m.allgatherTable = append(m.allgatherTable, commPoint{b, m.groundAllGatherUs(b, devices)})
	}
}

// CacheStats reports the memoization layer's effectiveness. Hits and Misses
// count lookups in the three memos: op profiles (a miss takes a profile),
// skew tables (a miss builds a profile's table, a hit reuses it) and
// uniform replays. Communication predictions are not memoized and not
// counted.
type CacheStats struct {
	Hits        int64
	Misses      int64
	ProfiledOps int64
}

// HitRate is the fraction of memo lookups served without computing.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats snapshots the cache counters.
func (m *Model) Stats() CacheStats {
	return CacheStats{
		Hits:        m.hits.Load(),
		Misses:      m.misses.Load(),
		ProfiledOps: m.profiled.Load(),
	}
}

// ---------------------------------------------------------------------------
// Ground truth: analytic hardware model.
// ---------------------------------------------------------------------------

// effFLOPSAt returns achieved FLOP/s for a kernel doing the given work on a
// device with the given peak throughput. Small kernels under-utilize
// streaming multiprocessors; utilization ramps with work following
// u(f) = MaxUtilization * f / (f + f_half).
func (m *Model) effFLOPSAt(flops, peakTFLOPs float64) float64 {
	g := &m.Cluster.Node.GPU
	fHalf := g.SaturationGFLOP * 1e9
	util := g.MaxUtilization * flops / (flops + fHalf)
	return peakTFLOPs * 1e12 * util
}

// GroundComputeUs prices a compute instruction on the device: kernel launch
// overhead plus the larger of its compute-roofline and memory-roofline
// time. On a mixed fleet the SPMD iteration waits for its slowest replica,
// so the roofline runs at the weakest class's throughput (DESIGN.md §12).
func (m *Model) GroundComputeUs(in *ir.Instr) float64 {
	return m.groundComputeUsAt(in, m.fleet.slowestTFLOPs)
}

// groundComputeUsAt prices a compute instruction at a specific per-GPU peak
// throughput — the shared form behind uniform pricing and the straggler
// decomposition.
func (m *Model) groundComputeUsAt(in *ir.Instr, peakTFLOPs float64) float64 {
	if in.FLOPs == 0 && in.Bytes == 0 {
		// Zero-work plumbing (batch-axis Partition/Reconstruct are views
		// into contiguous buffers) costs nothing.
		return 0
	}
	g := &m.Cluster.Node.GPU
	kernels := 1.0
	if in.Kernels > 1 {
		kernels = float64(in.Kernels)
	}
	t := g.KernelLaunchUs * kernels
	if in.FLOPs > 0 {
		perKernel := in.FLOPs / kernels
		t += in.FLOPs / m.effFLOPSAt(perKernel, peakTFLOPs) * 1e6 / m.computeScale
	}
	if in.Bytes > 0 {
		// Memory-bound component: sustained ~75% of peak DRAM bandwidth.
		t += float64(in.Bytes) / (g.MemBWGBs * 1e9 * 0.75) * 1e6
	}
	return t
}

// ComputeStragglerUs decomposes a compute instruction's heterogeneity
// penalty: the extra microseconds the iteration spends because the slowest
// class lags the fastest, plus the lagging class's name. Uniform fleets and
// communication instructions report no straggler.
func (m *Model) ComputeStragglerUs(in *ir.Instr) (string, float64) {
	f := &m.fleet
	if !f.mixed || in.IsComm() {
		return "", 0
	}
	extra := m.GroundComputeUs(in) - m.groundComputeUsAt(in, f.fastestTFLOPs)
	if extra <= 0 {
		return f.straggler, 0
	}
	return f.straggler, extra
}

// groundAllToAllUs prices an all-to-all where every device exchanges
// bytesPerDevice of payload in total (its full local buffer). Traffic
// splits over the topology's tiers — NVLink for node peers, the per-GPU NIC
// share toward the rest of the rack, the oversubscribed spine toward other
// racks (inter-rack bytes load the NIC too, since that is the port they
// leave through) — and the slowest tier dominates since they drain
// concurrently. With a flat topology the spine tier is empty and the model
// reduces to the original two-tier closed form (DESIGN.md §11).
func (m *Model) groundAllToAllUs(bytesPerDevice int64, devices int) float64 {
	tiers := m.a2aTierUs(bytesPerDevice, devices)
	if tiers == ([hw.NumTiers]float64{}) {
		return 0
	}
	alpha := 15.0 + 0.4*float64(devices) // startup + grouped send/recv latency
	bound := 0.0
	for _, t := range tiers {
		bound = math.Max(bound, t)
	}
	return alpha + bound
}

// a2aTierUs returns the per-tier drain bounds (microseconds, no startup
// latency) of a uniform all-to-all, the closed-form mirror of
// netsim.AllToAllTimed's per-tier reduction. A zero result means the
// exchange moves no bytes.
func (m *Model) a2aTierUs(bytesPerDevice int64, devices int) [hw.NumTiers]float64 {
	var tiers [hw.NumTiers]float64
	if devices <= 1 || bytesPerDevice <= 0 {
		return tiers
	}
	f := &m.fleet
	gpn := f.gpusPerNode
	if devices < gpn {
		gpn = devices
	}
	nodes := (devices + gpn - 1) / gpn
	rackNodes := f.rackNodes
	if rackNodes > nodes {
		rackNodes = nodes
	}
	peers := float64(devices - 1)
	intraPeers := float64(gpn - 1)
	interPeers := peers - intraPeers
	// Peers behind the same rack switch but on other nodes; everything
	// beyond them crosses the spine. Approximates full nodes, like the
	// intra/inter split above.
	sameRackPeers := float64((rackNodes - 1) * gpn)
	if sameRackPeers > interPeers {
		sameRackPeers = interPeers
	}
	spinePeers := interPeers - sameRackPeers
	perPeer := float64(bytesPerDevice) / float64(devices)

	intraBytes := perPeer * intraPeers
	interBytes := perPeer * interPeers // NIC carries rack and spine traffic alike
	spineBytes := perPeer * spinePeers
	tiers[hw.TierNVLink] = intraBytes / (effBW(f.nvlinkGBs, intraBytes) * 1e9) * 1e6
	if interPeers > 0 {
		tiers[hw.TierNIC] = interBytes / (effBW(f.nicGBs, interBytes) * 1e9) * 1e6
	}
	if spinePeers > 0 {
		tiers[hw.TierSpine] = spineBytes / (effBW(f.spineGBs, spineBytes) * 1e9) * 1e6
	}
	return tiers
}

// A2ATierUs exposes the closed-form per-tier drain bounds of a uniform
// all-to-all (microseconds, startup latency excluded) — the decomposition
// behind the simulator's per-tier breakdown.
func (m *Model) A2ATierUs(bytesPerDevice int64, devices int) [hw.NumTiers]float64 {
	if devices == 0 {
		devices = m.fleet.totalGPUs
	}
	return m.a2aTierUs(bytesPerDevice, devices)
}

// A2ABottleneck reports which tier bounds a uniform all-to-all of the given
// payload: the tier a topology-aware planner must relieve to speed the
// exchange up.
func (m *Model) A2ABottleneck(bytesPerDevice int64, devices int) hw.Tier {
	tiers := m.A2ATierUs(bytesPerDevice, devices)
	best := hw.TierNVLink
	for tier := hw.Tier(0); tier < hw.NumTiers; tier++ {
		if tiers[tier] > tiers[best] {
			best = tier
		}
	}
	return best
}

// groundAllReduceUs prices a hierarchical all-reduce of bytes-per-device
// gradient data: intra-node reduce-scatter over NVLink, an intra-rack ring
// over each GPU's 1/gpn shard (so a node's NICs carry the gradient once,
// not once per GPU), an inter-rack ring over the rack-sharded slice across
// the spine, then the gathers back down. The hierarchical ring moves the
// same total volume as a single flat ring (the per-level (n-1)/n factors
// telescope), so a non-blocking spine reproduces the flat closed form; an
// oversubscribed one only pays extra on the inter-rack slice. This
// asymmetry versus all-to-all — whose inter-node traffic cannot be
// shard-reduced — is why MoE dispatch dominates MoE training communication
// (paper Sec. 1).
func (m *Model) groundAllReduceUs(bytes int64, devices int) float64 {
	return m.groundHierarchicalUs(bytes, devices, 2)
}

// groundAllGatherUs prices a hierarchical all-gather (or reduce-scatter —
// the two move the same volume in opposite directions) of `bytes` of
// gathered data: one direction of the all-reduce's two.
func (m *Model) groundAllGatherUs(bytes int64, devices int) float64 {
	return m.groundHierarchicalUs(bytes, devices, 1)
}

// groundHierarchicalUs is the shared hierarchical-collective closed form:
// directions is 2 for all-reduce (reduce-scatter + all-gather) and 1 for
// all-gather/reduce-scatter.
func (m *Model) groundHierarchicalUs(bytes int64, devices int, directions float64) float64 {
	if devices <= 1 || bytes <= 0 {
		return 0
	}
	f := &m.fleet
	gpn := f.gpusPerNode
	nodes := (devices + gpn - 1) / gpn
	rackNodes := f.rackNodes
	if rackNodes > nodes {
		rackNodes = nodes
	}
	racks := (nodes + rackNodes - 1) / rackNodes
	vol := float64(bytes)
	alpha := 20.0 + 1.5*math.Log2(float64(devices))

	// Intra-node reduce-scatter/all-gather over NVLink.
	intra := directions * vol * float64(gpn-1) / float64(gpn) / (effBW(f.nvlinkGBs, vol) * 1e9) * 1e6
	if gpn <= 1 {
		intra = 0
	}
	// Intra-rack ring over each GPU's node shard.
	rack := 0.0
	shard := vol / float64(gpn)
	if rackNodes > 1 {
		rack = directions * shard * float64(rackNodes-1) / float64(rackNodes) / (effBW(f.nicGBs, shard) * 1e9) * 1e6
	}
	// Inter-rack ring over the rack-sharded slice, across the spine.
	spine := 0.0
	if racks > 1 {
		rackShard := shard / float64(rackNodes)
		spine = directions * rackShard * float64(racks-1) / float64(racks) / (effBW(f.spineGBs, rackShard) * 1e9) * 1e6
	}
	return alpha + intra + rack + spine
}

// effBW models small-message bandwidth ramp-up: achieved = peak * b/(b+b0).
//
//lancet:hotpath
func effBW(peakGBs, bytes float64) float64 {
	const rampBytes = 256 * 1024
	if bytes <= 0 {
		return peakGBs
	}
	return peakGBs * bytes / (bytes + rampBytes)
}

// ---------------------------------------------------------------------------
// Prediction side: memoized profiles + interpolated comm table.
// ---------------------------------------------------------------------------

// PredictInstr returns the optimizer-visible execution time estimate in
// microseconds. Compute ops are profiled once per shape and cached;
// communication ops are looked up in the interpolated table.
func (m *Model) PredictInstr(in *ir.Instr) float64 {
	if in.IsComm() {
		return m.PredictComm(in.Op, in.Bytes, in.CommDevices)
	}
	key := profileKey{
		op: in.Op, grad: in.Grad,
		flops: bucket(int64(in.FLOPs)), bytes: bucket(in.Bytes),
		devices: in.CommDevices, numParts: in.NumParts,
	}
	s := &m.profiles[key.shard()]
	if t, ok := s.get(key); ok {
		m.hits.Add(1)
		return t
	}
	// A single profiling measurement of the ground truth. Real profiling
	// observes one noisy sample; we reproduce that with a deterministic
	// per-shape perturbation of up to +-1.5%. Concurrent first predictions
	// of the same shape compute the same deterministic value, so a racing
	// double-put is harmless.
	t := m.GroundComputeUs(in) * (1 + measurementNoise(key))
	s.put(key, t)
	m.misses.Add(1)
	m.profiled.Add(1)
	return t
}

// PredictComm estimates a collective's time via linear interpolation over
// the profiled table, mirroring the paper's comm cost model. Tables are
// profiled for the cluster's full device count; other group sizes price at
// ground truth. Nothing is memoized: the interpolation is a binary search
// over 22 points, cheaper than a memo lookup would be.
func (m *Model) PredictComm(op ir.OpKind, bytes int64, devices int) float64 {
	var table []commPoint
	switch op {
	case ir.OpAllToAll:
		table = m.a2aTable
	case ir.OpAllReduce:
		table = m.allreduceTable
	case ir.OpAllGather, ir.OpReduceScatter:
		table = m.allgatherTable
	default:
		panic(fmt.Sprintf("cost: not a communication op: %v", op))
	}
	if devices != 0 && devices != m.tableDevices {
		return m.groundCommUs(op, bytes, devices)
	}
	return interpolate(table, bytes)
}

// ActualInstr returns the exact ground-truth execution time the simulator
// charges (before per-execution jitter).
func (m *Model) ActualInstr(in *ir.Instr) float64 {
	if in.IsComm() {
		return m.groundCommUs(in.Op, in.Bytes, in.CommDevices)
	}
	return m.GroundComputeUs(in)
}

func (m *Model) groundCommUs(op ir.OpKind, bytes int64, devices int) float64 {
	if devices == 0 {
		devices = m.fleet.totalGPUs
	}
	switch op {
	case ir.OpAllToAll:
		return m.groundAllToAllUs(bytes, devices)
	case ir.OpAllReduce:
		return m.groundAllReduceUs(bytes, devices)
	case ir.OpAllGather, ir.OpReduceScatter:
		return m.groundAllGatherUs(bytes, devices)
	}
	panic(fmt.Sprintf("cost: not a communication op: %v", op))
}

// ValidateProfile reports whether a routing profile is shaped for this
// model's cluster. Callers that hand profiles into hot paths (the partition
// DP, the simulator replay) should validate once up front; AllToAllSkewedUs
// panics on a mismatched profile the same way PredictComm panics on a
// non-communication op.
func (m *Model) ValidateProfile(prof *netsim.RoutingProfile) error {
	if prof == nil {
		return nil
	}
	if g := m.fleet.totalGPUs; prof.Devices() != g {
		return fmt.Errorf("cost: routing profile is shaped for %d devices, cluster has %d",
			prof.Devices(), g)
	}
	return nil
}

// InvalidateProfile drops the interpolation table of the routing profile
// with the given content fingerprint. The drift loop (DESIGN.md §16) calls
// this when a session's workload profile is replaced — the superseded
// traffic shape will not be queried again, and a long-lived serving process
// must not accumulate one table per drift step forever. Other profiles'
// tables (and the uniform comm tables) are untouched, so concurrent
// predictions for live profiles never observe an invalidation.
func (m *Model) InvalidateProfile(fp uint64) { m.skewTabs.Delete(fp) }

// AllToAllSkewedUs prices an all-to-all whose per-pair traffic follows the
// routing profile instead of the uniform split — the skew-aware path of
// DESIGN.md §10. A nil profile falls back to the closed-form uniform model,
// and a uniform profile reproduces the closed form within tolerance (the
// equivalence the tests pin), so callers can thread one code path for both
// workloads. It is A2APricer.SkewedUs on a one-shot pricer.
func (m *Model) AllToAllSkewedUs(bytesPerDevice int64, prof *netsim.RoutingProfile) float64 {
	return m.NewA2APricer(prof).SkewedUs(bytesPerDevice)
}

// A2APricer prices skewed and partitioned all-to-alls for one routing
// profile: the one implementation behind AllToAllSkewedUs and the partition
// DP, which acquires one per run and then prices every candidate
// instruction through plain table interpolation — no lock, no allocation
// (DESIGN.md §13). The zero value is not usable; obtain one from NewA2APricer.
type A2APricer struct {
	m    *Model
	prof *netsim.RoutingProfile
	tab  *skewTable
}

// NewA2APricer validates the profile once and resolves (building if needed)
// its interpolation table up front, so every subsequent lookup on the
// returned pricer is lock-free and allocation-free. A nil profile yields a
// pricer whose SkewedUs falls back to the closed-form uniform model, same
// as AllToAllSkewedUs.
func (m *Model) NewA2APricer(prof *netsim.RoutingProfile) A2APricer {
	p := A2APricer{m: m, prof: prof}
	if prof != nil {
		if err := m.ValidateProfile(prof); err != nil {
			panic(err.Error())
		}
		p.tab = m.skewTableFor(prof)
	}
	return p
}

// Profiled reports whether the pricer carries a routing profile (skew-aware
// pricing) or falls back to the uniform closed form.
func (p A2APricer) Profiled() bool { return p.prof != nil }

// SkewedUs prices an all-to-all of bytesPerDevice under the pricer's
// routing profile: the profile's interpolation table, an exact link-level
// replay below the table floor, or the closed form without a profile.
//
//lancet:hotpath
func (p A2APricer) SkewedUs(bytesPerDevice int64) float64 {
	if p.prof == nil {
		return p.m.groundAllToAllUs(bytesPerDevice, p.m.fleet.totalGPUs)
	}
	if bytesPerDevice <= 0 {
		return 0
	}
	if bytesPerDevice < skewTableMinBytes {
		return p.m.exactSkewedUs(bytesPerDevice, p.prof)
	}
	return p.tab.lookup(bytesPerDevice)
}

// PartitionedUs applies the paper's static-shape approximation: one micro
// all-to-all of an n-way partition of a bytes payload costs the uniform
// table queried at bytes/n. Used by the DP's padded-closed-form cap.
//
//lancet:hotpath
func (p A2APricer) PartitionedUs(bytes int64, devices, n int) float64 {
	return p.m.PredictComm(ir.OpAllToAll, bytes/int64(max(n, 1)), devices)
}

// IrregularA2AUs prices the two-phase irregular all-to-all of paper Fig. 10:
// a small size-exchange collective followed by the payload exchange of the
// actual (unpadded) bytes.
func (m *Model) IrregularA2AUs(actualBytes int64, devices int) float64 {
	sizeExchange := m.groundAllToAllUs(int64(devices)*4, devices)
	return sizeExchange + m.groundAllToAllUs(actualBytes, devices)
}

// PredictIrregularA2A is the optimizer-visible estimate of an irregular
// all-to-all whose expected payload is known from a profiled sample batch:
// both phases are priced from the interpolated table.
func (m *Model) PredictIrregularA2A(expectedBytes int64, devices int) float64 {
	return m.PredictComm(ir.OpAllToAll, int64(devices)*4, devices) +
		m.PredictComm(ir.OpAllToAll, expectedBytes, devices)
}

//lancet:hotpath
func interpolate(table []commPoint, bytes int64) float64 {
	if len(table) == 0 {
		return 0
	}
	if bytes <= table[0].bytes {
		// Scale below the smallest profiled point.
		return table[0].us * float64(bytes) / float64(table[0].bytes)
	}
	last := table[len(table)-1]
	if bytes >= last.bytes {
		// Extrapolate at the asymptotic bandwidth of the last segment.
		prev := table[len(table)-2]
		slope := (last.us - prev.us) / float64(last.bytes-prev.bytes)
		return last.us + slope*float64(bytes-last.bytes)
	}
	lo, hi := 0, len(table)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if table[mid].bytes <= bytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := table[lo], table[hi]
	frac := float64(bytes-a.bytes) / float64(b.bytes-a.bytes)
	return a.us + frac*(b.us-a.us)
}

// bucket quantizes sizes so the profile cache hits for near-identical
// shapes (two buckets per octave). It is on the prediction hot path (two
// calls per PredictInstr key), so the round(2*log2(v)) formula is evaluated
// through a precomputed threshold table instead of math.Log2 — bucketSlow
// remains the specification and the table is derived from it at init, so
// the two agree on every int64 (asserted by TestBucketTableMatchesFormula).
//
//lancet:hotpath
func bucket(v int64) int64 {
	if v <= 0 {
		return 0
	}
	// floor(log2 v) pins round(2*log2 v) to one of three candidates; two
	// threshold comparisons pick among them.
	k := int64(2 * (bits.Len64(uint64(v)) - 1))
	if k+1 < int64(len(bucketThresholds)) && v >= bucketThresholds[k+1] {
		k++
	}
	if k+1 < int64(len(bucketThresholds)) && v >= bucketThresholds[k+1] {
		k++
	}
	return k
}

// bucketSlow is the original formula bucket must reproduce exactly.
func bucketSlow(v int64) int64 {
	if v <= 0 {
		return 0
	}
	e := math.Log2(float64(v))
	return int64(math.Round(e * 2))
}

// bucketThresholds[k] is the smallest v >= 1 with bucketSlow(v) >= k,
// found by binary search over the (monotone) formula itself so float
// rounding at the half-octave boundaries is honored bit for bit.
var bucketThresholds = func() [128]int64 {
	var t [128]int64
	for k := range t {
		lo, hi := int64(1), int64(math.MaxInt64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bucketSlow(mid) >= int64(k) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		t[k] = lo
	}
	return t
}()

// measurementNoise derives a deterministic pseudo-random perturbation in
// [-0.015, 0.015] from the profile key.
func measurementNoise(k profileKey) float64 {
	h := fnvMix(int64(k.op), int64(k.grad), k.flops, k.bytes, int64(k.devices), int64(k.numParts))
	return (float64(h%2001)/1000.0 - 1.0) * 0.015
}
