// Package hw models the hardware substrate the paper evaluates on: GPU
// accelerators (NVIDIA V100 and A100), intra-node interconnect (NVLink),
// network interfaces, and multi-node cluster topologies matching the Amazon
// EC2 p3dn.24xlarge and p4de.24xlarge instances used in the paper.
//
// Beyond the node boundary, a Topology describes the network hierarchy:
// nodes grouped under non-blocking rack switches with an oversubscribed
// spine above them (DESIGN.md §11). The zero Topology is the flat fabric —
// every node one hop from every other at full NIC bandwidth — which is what
// all pre-topology code assumed.
//
// A Cluster is uniform by default; WithClasses declares a mixed-generation
// fleet as an ordered list of NodeClass slices (DESIGN.md §12). A single
// class collapses back to the uniform cluster, so every pre-heterogeneity
// code path prices identically.
//
// All quantities are static specifications; timing derived from them lives in
// package cost.
package hw

import (
	"fmt"
	"math"
	"strings"
)

// GPUSpec describes a single accelerator.
type GPUSpec struct {
	Name string

	// PeakTFLOPS is the peak half-precision tensor throughput in TFLOP/s.
	PeakTFLOPS float64
	// MemGB is the device memory capacity in GiB.
	MemGB float64
	// MemBWGBs is the device memory bandwidth in GB/s, governing
	// memory-bound (elementwise, normalization, dispatch) operators.
	MemBWGBs float64
	// KernelLaunchUs is the fixed per-kernel launch overhead in
	// microseconds. This is the cost that penalizes over-partitioning
	// (paper Sec. 2.3, Challenge 2).
	KernelLaunchUs float64
	// SaturationGFLOP is the amount of work (in GFLOP) at which a single
	// kernel reaches half of its peak utilization. Smaller kernels run at
	// proportionally lower efficiency, modeling SM under-utilization of
	// partitioned operators.
	SaturationGFLOP float64
	// MaxUtilization is the fraction of peak a well-shaped large GEMM
	// achieves in practice.
	MaxUtilization float64
}

// NICSpec describes the network interfaces of one node.
type NICSpec struct {
	// BandwidthGbps is the bandwidth of a single NIC in Gbit/s.
	BandwidthGbps float64
	// Count is the number of NICs per node (p4de has 4, p3dn has 1).
	Count int
}

// NodeSpec is one multi-GPU server.
type NodeSpec struct {
	GPUsPerNode int
	GPU         GPUSpec
	NIC         NICSpec
	// NVLinkGBs is the per-GPU intra-node interconnect bandwidth in GB/s.
	NVLinkGBs float64
}

// Tier identifies the link class a (src, dst) device pair traverses —
// the hierarchy levels of the topology-aware network model.
type Tier int

const (
	// TierNVLink is intra-node traffic over the NVLink mesh.
	TierNVLink Tier = iota
	// TierNIC is inter-node traffic between nodes sharing a rack switch.
	TierNIC
	// TierSpine is inter-rack traffic crossing the (possibly
	// oversubscribed) spine.
	TierSpine
	// NumTiers sizes per-tier accumulators.
	NumTiers
)

func (t Tier) String() string {
	switch t {
	case TierNVLink:
		return "nvlink"
	case TierNIC:
		return "nic"
	case TierSpine:
		return "spine"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Topology describes the network hierarchy above the node boundary. The
// zero value is the flat fabric every pre-topology model assumed: all nodes
// under one non-blocking switch.
type Topology struct {
	// NodesPerRack groups nodes under one non-blocking rack (leaf) switch.
	// 0, or any value >= the cluster's node count, means a single rack: no
	// spine tier exists and the topology is flat.
	NodesPerRack int
	// Oversubscription divides the per-GPU NIC share for traffic that
	// crosses racks: 2 means the spine carries half the leaf bandwidth (a
	// 2:1 oversubscribed fabric). 0 means 1 (non-blocking spine).
	Oversubscription float64
	// SpineShare is the fraction of the spine bandwidth this job actually
	// receives when the fabric is shared with other tenants: 0.5 models two
	// equal jobs contending for the same spine, 0.25 four. Valid range
	// (0, 1]; 0 means 1 (sole tenant). NVLink and rack tiers are
	// unaffected — multi-job contention converges at the spine
	// (DESIGN.md §17).
	SpineShare float64
}

// Oversub returns the effective oversubscription factor (>= 1; the zero
// value reads as a non-blocking spine).
func (t Topology) Oversub() float64 {
	if t.Oversubscription == 0 {
		return 1
	}
	return t.Oversubscription
}

// Share returns the effective spine bandwidth share (in (0, 1]; the zero
// value reads as sole tenancy).
func (t Topology) Share() float64 {
	if t.SpineShare == 0 {
		return 1
	}
	return t.SpineShare
}

// DefaultRacks resolves the request-layer convention shared by the CLI
// (-oversub, -spine-share) and the serving layer (topology.oversub /
// topology.spine_share): an oversubscribed or contended spec without an
// explicit rack size means per-node racks, so the factor applies to all
// inter-node traffic. Topology semantics proper are unchanged — a zero
// NodesPerRack still means one rack.
func (t Topology) DefaultRacks() Topology {
	if t.NodesPerRack == 0 && (t.Oversubscription > 1 || (t.SpineShare != 0 && t.SpineShare < 1)) {
		t.NodesPerRack = 1
	}
	return t
}

// validate reports the first invalid Topology field as a *SpecError.
func (t Topology) validate() error {
	if t.NodesPerRack < 0 {
		return &SpecError{Field: "Topology.NodesPerRack", Value: float64(t.NodesPerRack)}
	}
	if o := t.Oversubscription; o != 0 && (o < 1 || math.IsNaN(o) || math.IsInf(o, 0)) {
		return &SpecError{Field: "Topology.Oversubscription", Value: o}
	}
	if s := t.SpineShare; s != 0 && !(s > 0 && s <= 1) {
		// NaN fails s > 0, so the pathological spellings land here too.
		return &SpecError{Field: "Topology.SpineShare", Value: s}
	}
	return nil
}

// NodeClass is one homogeneous slice of a mixed-generation fleet: Count
// nodes sharing a GPU count and the three quantities heterogeneity-aware
// pricing needs — compute throughput, intra-node bandwidth and the node's
// NIC budget (DESIGN.md §12). Memory capacity and kernel-launch behavior
// stay with the cluster's base NodeSpec: classes shape timing, not fit.
type NodeClass struct {
	// Name labels the class in reports and straggler breakdowns, e.g.
	// "V100".
	Name string
	// Count is the number of nodes of this class.
	Count int
	// GPUsPerNode is the accelerator count of one node of this class.
	GPUsPerNode int
	// TFLOPs is the per-GPU peak half-precision tensor throughput.
	TFLOPs float64
	// NVLinkGBs is the per-GPU intra-node interconnect bandwidth in GB/s.
	NVLinkGBs float64
	// NICGBs is the node's total NIC budget in GB/s, shared evenly across
	// its GPUs.
	NICGBs float64
}

// PerGPUNICGBs is the class's per-GPU share of its node NIC budget.
func (nc NodeClass) PerGPUNICGBs() float64 { return nc.NICGBs / float64(nc.GPUsPerNode) }

// sameSpec reports whether two classes price identically (names aside).
func (nc NodeClass) sameSpec(o NodeClass) bool {
	return nc.GPUsPerNode == o.GPUsPerNode && nc.TFLOPs == o.TFLOPs &&
		nc.NVLinkGBs == o.NVLinkGBs && nc.NICGBs == o.NICGBs
}

// validate reports the first invalid field of class i as a *SpecError.
func (nc NodeClass) validate(i int) error {
	checks := []struct {
		field string
		value float64
	}{
		{"Count", float64(nc.Count)},
		{"GPUsPerNode", float64(nc.GPUsPerNode)},
		{"TFLOPs", nc.TFLOPs},
		{"NVLinkGBs", nc.NVLinkGBs},
		{"NICGBs", nc.NICGBs},
	}
	for _, ch := range checks {
		if ch.value <= 0 || math.IsNaN(ch.value) || math.IsInf(ch.value, 0) {
			return &SpecError{Field: fmt.Sprintf("Classes[%d].%s", i, ch.field), Value: ch.value}
		}
	}
	return nil
}

// Cluster is a collection of nodes: uniform (every node is Node) unless
// Classes declares a mixed-generation fleet.
type Cluster struct {
	Name  string
	Nodes int
	Node  NodeSpec
	// Topology is the network hierarchy above the nodes; the zero value is
	// the flat single-rack fabric.
	Topology Topology
	// Classes, when non-empty, declares a heterogeneous fleet: class i's
	// nodes occupy the next Classes[i].Count global node slots in order.
	// Node then describes what a hetero-blind planner assumes fleet-wide
	// (and still supplies memory capacity and kernel-launch behavior);
	// per-class specs govern compute and network pricing. Empty means
	// uniform. Always attach classes through WithClasses, which validates
	// and canonicalizes (a single class collapses to the uniform form).
	Classes []NodeClass
}

// SpecError reports a hardware specification field that would poison the
// cost model (zero or negative counts and bandwidths turn into NaN/Inf
// predictions). It is returned at cluster construction so the bad value
// fails loudly instead of propagating.
type SpecError struct {
	Field string
	Value float64
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("hw: invalid cluster spec: %s = %g", e.Field, e.Value)
}

// Validate checks every quantity the cost model divides by. It returns a
// *SpecError naming the first offending field, or nil.
func (c Cluster) Validate() error {
	checks := []struct {
		field string
		value float64
	}{
		{"Nodes", float64(c.Nodes)},
		{"Node.GPUsPerNode", float64(c.Node.GPUsPerNode)},
		{"Node.NVLinkGBs", c.Node.NVLinkGBs},
		{"Node.NIC.BandwidthGbps", c.Node.NIC.BandwidthGbps},
		{"Node.NIC.Count", float64(c.Node.NIC.Count)},
		{"Node.GPU.PeakTFLOPS", c.Node.GPU.PeakTFLOPS},
		{"Node.GPU.MemGB", c.Node.GPU.MemGB},
		{"Node.GPU.MemBWGBs", c.Node.GPU.MemBWGBs},
	}
	for _, ch := range checks {
		if ch.value <= 0 || math.IsNaN(ch.value) || math.IsInf(ch.value, 0) {
			return &SpecError{Field: ch.field, Value: ch.value}
		}
	}
	nodes := 0
	for i, nc := range c.Classes {
		if err := nc.validate(i); err != nil {
			return err
		}
		nodes += nc.Count
	}
	if len(c.Classes) > 0 && nodes != c.Nodes {
		// WithClasses keeps Nodes and the class counts consistent; a
		// hand-assembled mismatch would silently misclassify ranks.
		return &SpecError{Field: "Nodes", Value: float64(c.Nodes)}
	}
	return c.Topology.validate()
}

// Predefined accelerator specs. Peak numbers are the published fp16 tensor
// core figures; efficiency knobs are calibrated so large GEMMs land near
// commonly measured utilization.
var (
	V100 = GPUSpec{
		Name:            "V100",
		PeakTFLOPS:      125,
		MemGB:           32,
		MemBWGBs:        900,
		KernelLaunchUs:  8,
		SaturationGFLOP: 3.0,
		MaxUtilization:  0.45,
	}
	A100 = GPUSpec{
		Name:            "A100-80GB",
		PeakTFLOPS:      312,
		MemGB:           80,
		MemBWGBs:        2039,
		KernelLaunchUs:  6,
		SaturationGFLOP: 6.0,
		MaxUtilization:  0.55,
	}
)

// P3dn returns a p3dn.24xlarge-like node: 8x V100, one 100 Gbps NIC,
// NVLink2 (~150 GB/s effective per GPU).
func P3dn() NodeSpec {
	return NodeSpec{
		GPUsPerNode: 8,
		GPU:         V100,
		NIC:         NICSpec{BandwidthGbps: 100, Count: 1},
		NVLinkGBs:   150,
	}
}

// P4de returns a p4de.24xlarge-like node: 8x A100 80GB, four 100 Gbps NICs,
// NVLink3 (~300 GB/s effective per GPU).
func P4de() NodeSpec {
	return NodeSpec{
		GPUsPerNode: 8,
		GPU:         A100,
		NIC:         NICSpec{BandwidthGbps: 100, Count: 4},
		NVLinkGBs:   300,
	}
}

// NewCluster builds a cluster of n nodes with the given node spec,
// validating the specification (a *SpecError names the offending field).
func NewCluster(name string, nodes int, node NodeSpec) (Cluster, error) {
	c := Cluster{Name: name, Nodes: nodes, Node: node}
	if err := c.Validate(); err != nil {
		return Cluster{}, err
	}
	return c, nil
}

// mustCluster builds a cluster from a spec known valid at compile time.
func mustCluster(name string, nodes int, node NodeSpec) Cluster {
	c, err := NewCluster(name, nodes, node)
	if err != nil {
		panic(err)
	}
	return c
}

// V100Cluster returns an n-node p3dn cluster (8 GPUs per node).
func V100Cluster(nodes int) Cluster { return mustCluster("V100", nodes, P3dn()) }

// A100Cluster returns an n-node p4de cluster (8 GPUs per node).
func A100Cluster(nodes int) Cluster { return mustCluster("A100", nodes, P4de()) }

// nodeSpecFor resolves a GPU type name to its paper node spec.
func nodeSpecFor(gpuType string) (NodeSpec, string, error) {
	switch gpuType {
	case "V100", "v100":
		return P3dn(), "V100", nil
	case "A100", "a100":
		return P4de(), "A100", nil
	}
	return NodeSpec{}, "", fmt.Errorf("hw: unknown GPU type %q", gpuType)
}

// ClusterForGPUs returns a cluster of the given type sized to hold gpus
// accelerators. gpus must be a multiple of the node size for multi-node
// clusters; a single partial node is allowed for small experiments.
func ClusterForGPUs(gpuType string, gpus int) (Cluster, error) {
	node, _, err := nodeSpecFor(gpuType)
	if err != nil {
		return Cluster{}, err
	}
	if gpus <= 0 {
		return Cluster{}, fmt.Errorf("hw: invalid GPU count %d", gpus)
	}
	if gpus < node.GPUsPerNode {
		// A partial node keeps the full node's *per-GPU* NIC share: scale
		// the node NIC budget to the GPUs actually present instead of
		// dividing the whole budget among fewer GPUs, which would inflate
		// per-GPU inter-node bandwidth for small experiments.
		node.NIC.BandwidthGbps *= float64(gpus) / float64(node.GPUsPerNode)
		node.GPUsPerNode = gpus
		return NewCluster(gpuType, 1, node)
	}
	if gpus%node.GPUsPerNode != 0 {
		return Cluster{}, fmt.Errorf("hw: %d GPUs is not a multiple of node size %d", gpus, node.GPUsPerNode)
	}
	return NewCluster(gpuType, gpus/node.GPUsPerNode, node)
}

// WithTopology returns a copy of the cluster with the given network
// hierarchy, validating the combined specification.
func (c Cluster) WithTopology(t Topology) (Cluster, error) {
	c.Topology = t
	if err := c.Validate(); err != nil {
		return Cluster{}, err
	}
	return c, nil
}

// Flat returns a copy of the cluster with the flat single-rack topology —
// what a topology-blind planner believes the fabric looks like. On a
// cluster whose topology is already flat it is the identity.
func (c Cluster) Flat() Cluster {
	if !c.FlatTopology() {
		c.Topology = Topology{}
	}
	return c
}

// ClassForGPU builds the NodeClass of `nodes` nodes of a known GPU type —
// the named-class currency of the serving layer's `classes` field and the
// CLI's -classes flag.
func ClassForGPU(gpuType string, nodes int) (NodeClass, error) {
	node, name, err := nodeSpecFor(gpuType)
	if err != nil {
		return NodeClass{}, err
	}
	return NodeClass{
		Name:        name,
		Count:       nodes,
		GPUsPerNode: node.GPUsPerNode,
		TFLOPs:      node.GPU.PeakTFLOPS,
		NVLinkGBs:   node.NVLinkGBs,
		NICGBs:      node.NIC.BandwidthGbps * float64(node.NIC.Count) / 8.0,
	}, nil
}

// WithClasses returns a copy of the cluster whose fleet is the ordered
// class list, validating the combined specification. Adjacent classes with
// identical specs merge, and a class list that collapses to a single class
// degenerates to the uniform cluster (Classes empty, Node rewritten from
// the class) — so every uniform spelling prices through the exact closed
// forms the pre-heterogeneity model used. With two or more distinct
// classes, Node keeps describing the hetero-blind planner's assumption
// (and the memory model); Nodes becomes the class total.
func (c Cluster) WithClasses(classes ...NodeClass) (Cluster, error) {
	merged := make([]NodeClass, 0, len(classes))
	for _, nc := range classes {
		if n := len(merged); n > 0 && merged[n-1].sameSpec(nc) && merged[n-1].Name == nc.Name {
			merged[n-1].Count += nc.Count
			continue
		}
		merged = append(merged, nc)
	}
	switch len(merged) {
	case 0:
		c.Classes = nil
	case 1:
		nc := merged[0]
		if err := nc.validate(0); err != nil {
			return Cluster{}, err
		}
		c.Classes = nil
		c.Nodes = nc.Count
		c.Node.GPUsPerNode = nc.GPUsPerNode
		c.Node.NVLinkGBs = nc.NVLinkGBs
		c.Node.GPU.PeakTFLOPS = nc.TFLOPs
		c.Node.NIC = NICSpec{BandwidthGbps: nc.NICGBs * 8.0, Count: 1}
		if nc.Name != "" {
			c.Name = nc.Name
		}
	default:
		c.Classes = merged
		c.Nodes = 0
		for _, nc := range merged {
			c.Nodes += nc.Count
		}
	}
	if err := c.Validate(); err != nil {
		return Cluster{}, err
	}
	return c, nil
}

// ClusterFromClasses assembles a cluster directly from an ordered class
// list: the first class — what a hetero-blind planner assumes fleet-wide —
// supplies the base node spec (it must name a known GPU type), and the
// cluster name joins the class names.
func ClusterFromClasses(classes []NodeClass) (Cluster, error) {
	if len(classes) == 0 {
		return Cluster{}, fmt.Errorf("hw: empty class list")
	}
	node, _, err := nodeSpecFor(classes[0].Name)
	if err != nil {
		return Cluster{}, err
	}
	name := classes[0].Name
	for _, nc := range classes[1:] {
		if nc.Name != name {
			name += "+" + nc.Name
		}
	}
	base, err := NewCluster(name, classes[0].Count, node)
	if err != nil {
		return Cluster{}, err
	}
	return base.WithClasses(classes...)
}

// RemoveNodes returns the cluster with the given global node indices
// removed — the degraded fleet a node-loss what-if plans against
// (DESIGN.md §17). Indices are deduplicated and must each lie in
// [0, Nodes); at least one node must survive. Survivors keep their
// relative order and re-pack densely: racks regroup over the remaining
// nodes in order, so the degraded fabric has no holes, and on a mixed
// fleet each class simply shrinks by its lost nodes (a fleet collapsing
// to one class degenerates to the uniform form, as always).
func (c Cluster) RemoveNodes(lost []int) (Cluster, error) {
	if len(lost) == 0 {
		return c, nil
	}
	seen := make(map[int]bool, len(lost))
	for _, n := range lost {
		if n < 0 || n >= c.Nodes {
			return Cluster{}, fmt.Errorf("hw: lost node %d out of range [0, %d)", n, c.Nodes)
		}
		seen[n] = true
	}
	if len(seen) >= c.Nodes {
		return Cluster{}, fmt.Errorf("hw: cannot lose all %d nodes", c.Nodes)
	}
	if !c.Heterogeneous() {
		c.Nodes -= len(seen)
		if err := c.Validate(); err != nil {
			return Cluster{}, err
		}
		return c, nil
	}
	classes := make([]NodeClass, 0, len(c.Classes))
	node := 0
	for _, nc := range c.Classes {
		kept := nc
		for i := 0; i < nc.Count; i++ {
			if seen[node+i] {
				kept.Count--
			}
		}
		node += nc.Count
		if kept.Count > 0 {
			classes = append(classes, kept)
		}
	}
	return c.WithClasses(classes...)
}

// Heterogeneous reports whether the fleet mixes node classes.
func (c Cluster) Heterogeneous() bool { return len(c.Classes) > 0 }

// Uniform returns the hetero-blind view of the cluster: every GPU priced
// as the base Node spec, the node layout and GPU count unchanged. Each
// class keeps its Count and GPUsPerNode and takes the base spec's per-GPU
// compute, NVLink and NIC share; when every class has the base node size
// the view is the plain uniform cluster. On a uniform cluster it is the
// identity.
func (c Cluster) Uniform() Cluster {
	if !c.Heterogeneous() {
		return c
	}
	base := c.baseClass()
	classes := make([]NodeClass, len(c.Classes))
	sameSize := true
	for i, nc := range c.Classes {
		classes[i] = base
		classes[i].Count, classes[i].GPUsPerNode = nc.Count, nc.GPUsPerNode
		classes[i].NICGBs = base.PerGPUNICGBs() * float64(nc.GPUsPerNode)
		sameSize = sameSize && nc.GPUsPerNode == base.GPUsPerNode
	}
	if sameSize {
		classes = nil // Nodes already counts every class's nodes
	}
	c.Classes = classes
	return c
}

// baseClass is the uniform cluster's fleet viewed as a single class.
func (c Cluster) baseClass() NodeClass {
	return NodeClass{
		Name:        c.Node.GPU.Name,
		Count:       c.Nodes,
		GPUsPerNode: c.Node.GPUsPerNode,
		TFLOPs:      c.Node.GPU.PeakTFLOPS,
		NVLinkGBs:   c.Node.NVLinkGBs,
		NICGBs:      c.Node.NIC.BandwidthGbps * float64(c.Node.NIC.Count) / 8.0,
	}
}

// classList is the fleet as classes: Classes, or the base node as a single
// synthetic class.
func (c Cluster) classList() []NodeClass {
	if c.Heterogeneous() {
		return c.Classes
	}
	return []NodeClass{c.baseClass()}
}

// checkRank panics when a global GPU rank lies outside the fleet. Rank
// arithmetic (ClassOf, nodeOf and the tier classifiers built on them) would
// otherwise silently map an out-of-range rank onto the last class or node
// and price garbage — exactly what a node-loss path indexing a dropped rank
// would hit. Out-of-range ranks are a caller bug, so the contract is panic,
// not clamp (DESIGN.md §11, §12).
func (c Cluster) checkRank(rank int) {
	if rank < 0 || rank >= c.TotalGPUs() {
		panic(fmt.Sprintf("hw: GPU rank %d out of range [0, %d) on cluster %s", rank, c.TotalGPUs(), c.Name))
	}
}

// ClassOf returns the index (into Classes) of the class hosting a global
// GPU rank; 0 on a uniform cluster. Panics on an out-of-range rank.
func (c Cluster) ClassOf(rank int) int {
	c.checkRank(rank)
	if !c.Heterogeneous() {
		return 0
	}
	for i, nc := range c.Classes {
		g := nc.Count * nc.GPUsPerNode
		if rank < g {
			return i
		}
		rank -= g
	}
	return len(c.Classes) - 1
}

// classSpec resolves the class hosting a rank (the base class when
// uniform). Panics on an out-of-range rank.
func (c Cluster) classSpec(rank int) NodeClass {
	if !c.Heterogeneous() {
		c.checkRank(rank)
		return c.baseClass()
	}
	return c.Classes[c.ClassOf(rank)]
}

// nodeOf returns the global node index hosting a GPU rank, walking the
// class layout when node sizes differ across classes. Panics on an
// out-of-range rank.
func (c Cluster) nodeOf(rank int) int {
	c.checkRank(rank)
	if !c.Heterogeneous() {
		return rank / c.Node.GPUsPerNode
	}
	node := 0
	for _, nc := range c.Classes {
		g := nc.Count * nc.GPUsPerNode
		if rank < g {
			return node + rank/nc.GPUsPerNode
		}
		rank -= g
		node += nc.Count
	}
	return node - 1
}

// SlowestTFLOPs is the weakest participating class's per-GPU compute
// throughput — what heterogeneity-aware compute pricing charges, since the
// SPMD iteration waits on its slowest replica (DESIGN.md §12).
func (c Cluster) SlowestTFLOPs() float64 {
	min := math.Inf(1)
	for _, nc := range c.classList() {
		if nc.TFLOPs < min {
			min = nc.TFLOPs
		}
	}
	return min
}

// FastestTFLOPs is the strongest class's per-GPU compute throughput — the
// reference the straggler breakdown measures lag against.
func (c Cluster) FastestTFLOPs() float64 {
	max := 0.0
	for _, nc := range c.classList() {
		if nc.TFLOPs > max {
			max = nc.TFLOPs
		}
	}
	return max
}

// StragglerClass returns the slowest-compute class and whether the fleet is
// actually mixed (uniform fleets have no straggler to report).
func (c Cluster) StragglerClass() (NodeClass, bool) {
	if !c.Heterogeneous() {
		return NodeClass{}, false
	}
	slow := c.Classes[0]
	for _, nc := range c.Classes[1:] {
		if nc.TFLOPs < slow.TFLOPs {
			slow = nc
		}
	}
	return slow, true
}

// MinNVLinkGBs is the weakest class's intra-node bandwidth — the effective
// NVLink rate of a collective that spans classes.
func (c Cluster) MinNVLinkGBs() float64 {
	min := math.Inf(1)
	for _, nc := range c.classList() {
		if nc.NVLinkGBs < min {
			min = nc.NVLinkGBs
		}
	}
	return min
}

// MinGPUsPerNode is the smallest node size across classes, the conservative
// peer-split geometry of the closed-form collectives.
func (c Cluster) MinGPUsPerNode() int {
	min := 0
	for _, nc := range c.classList() {
		if min == 0 || nc.GPUsPerNode < min {
			min = nc.GPUsPerNode
		}
	}
	return min
}

// RackNodes is the number of nodes sharing one rack switch, clamped to the
// cluster: 0 (unset) or anything >= Nodes collapses to a single rack.
func (c Cluster) RackNodes() int {
	r := c.Topology.NodesPerRack
	if r <= 0 || r > c.Nodes {
		return c.Nodes
	}
	return r
}

// Racks is the number of rack switches the cluster's nodes occupy.
func (c Cluster) Racks() int {
	rn := c.RackNodes()
	if rn <= 0 {
		return 1
	}
	return (c.Nodes + rn - 1) / rn
}

// FlatTopology reports whether the spine tier can never bound a transfer:
// a single rack, or a non-blocking (1:1) spine with no tenant contention.
// Flat clusters price identically to the pre-topology closed forms.
func (c Cluster) FlatTopology() bool {
	return c.Racks() <= 1 || (c.Topology.Oversub() <= 1 && c.Topology.Share() >= 1)
}

// Contended reports whether a fractional spine share actually binds: a
// multi-rack fleet whose SpineShare is below 1. Single-rack fleets never
// cross the spine, so a share there is inert.
func (c Cluster) Contended() bool {
	return c.Racks() > 1 && c.Topology.Share() < 1
}

// SoleTenant returns the cluster as a contention-blind planner believes it
// to be: the spine share reset to sole tenancy, every other dimension
// unchanged. On an uncontended cluster it is the identity.
func (c Cluster) SoleTenant() Cluster {
	if c.Contended() {
		c.Topology.SpineShare = 0
	}
	return c
}

// SameRack reports whether two global GPU ranks live under the same rack
// switch. Racks group nodes in global node order regardless of class.
func (c Cluster) SameRack(a, b int) bool {
	perRack := c.RackNodes()
	return c.nodeOf(a)/perRack == c.nodeOf(b)/perRack
}

// TierOf classifies the path between two global GPU ranks.
func (c Cluster) TierOf(a, b int) Tier {
	switch {
	case c.SameNode(a, b):
		return TierNVLink
	case c.SameRack(a, b):
		return TierNIC
	default:
		return TierSpine
	}
}

// SpineGBsPerGPU is the per-GPU share of inter-rack bandwidth in GB/s: the
// NIC share divided by the spine's oversubscription factor and scaled by
// the job's tenant share of the (possibly contended) spine.
func (c Cluster) SpineGBsPerGPU() float64 {
	return c.PerGPUNICGBs() * c.Topology.Share() / c.Topology.Oversub()
}

// TierGBsPerGPU is the fleet-wide effective per-GPU bandwidth of the given
// tier in GB/s: on a mixed fleet, the slowest participating class's rate —
// the conservative bound the closed-form collectives price with.
func (c Cluster) TierGBsPerGPU(t Tier) float64 {
	switch t {
	case TierNVLink:
		return c.MinNVLinkGBs()
	case TierNIC:
		return c.PerGPUNICGBs()
	default:
		return c.SpineGBsPerGPU()
	}
}

// TierGBsPerGPUOf is the per-GPU bandwidth device `rank` itself sees on the
// given tier: its own class's NVLink and NIC share. The link-level network
// simulator drains each device at this rate, so a pair's flow is bounded by
// the slower endpoint (DESIGN.md §12).
func (c Cluster) TierGBsPerGPUOf(rank int, t Tier) float64 {
	nc := c.classSpec(rank)
	switch t {
	case TierNVLink:
		return nc.NVLinkGBs
	case TierNIC:
		return nc.PerGPUNICGBs()
	default:
		return nc.PerGPUNICGBs() * c.Topology.Share() / c.Topology.Oversub()
	}
}

// TotalGPUs is the number of accelerators in the cluster.
func (c Cluster) TotalGPUs() int {
	if !c.Heterogeneous() {
		return c.Nodes * c.Node.GPUsPerNode
	}
	g := 0
	for _, nc := range c.Classes {
		g += nc.Count * nc.GPUsPerNode
	}
	return g
}

// PerGPUNICGBs is the inter-node bandwidth available to one GPU in GB/s,
// assuming each node's NICs are shared evenly across its GPUs. On a mixed
// fleet it is the weakest class's share — the effective rate of a
// collective every class participates in.
func (c Cluster) PerGPUNICGBs() float64 {
	min := math.Inf(1)
	for _, nc := range c.classList() {
		if s := nc.PerGPUNICGBs(); s < min {
			min = s
		}
	}
	return min
}

// SameNode reports whether two global GPU ranks live on the same node.
func (c Cluster) SameNode(a, b int) bool {
	return c.nodeOf(a) == c.nodeOf(b)
}

// MemBytes is the per-GPU memory capacity in bytes.
func (c Cluster) MemBytes() float64 { return c.Node.GPU.MemGB * (1 << 30) }

func (c Cluster) String() string {
	var s string
	if c.Heterogeneous() {
		parts := make([]string, len(c.Classes))
		for i, nc := range c.Classes {
			parts[i] = fmt.Sprintf("%dx%d %s", nc.Count, nc.GPUsPerNode, nc.Name)
		}
		s = fmt.Sprintf("%s[%s", c.Name, strings.Join(parts, " + "))
	} else {
		s = fmt.Sprintf("%s[%d nodes x %d %s", c.Name, c.Nodes, c.Node.GPUsPerNode, c.Node.GPU.Name)
	}
	if !c.FlatTopology() {
		s += fmt.Sprintf(", %d racks, %g:1 spine", c.Racks(), c.Topology.Oversub())
		if share := c.Topology.Share(); share < 1 {
			s += fmt.Sprintf(", %g spine share", share)
		}
	}
	return s + "]"
}
