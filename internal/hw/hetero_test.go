package hw

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// mustClass builds a named class or fails the test.
func mustClass(t *testing.T, gpuType string, nodes int) NodeClass {
	t.Helper()
	nc, err := ClassForGPU(gpuType, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

// mixedCluster is the canonical two-class fixture: 2 A100 nodes (ranks
// 0..15) followed by 1 V100 node (ranks 16..23).
func mixedCluster(t *testing.T) Cluster {
	t.Helper()
	c, err := ClusterFromClasses([]NodeClass{
		mustClass(t, "A100", 2), mustClass(t, "V100", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassForGPUSpecs(t *testing.T) {
	v := mustClass(t, "V100", 2)
	if v.GPUsPerNode != 8 || v.TFLOPs != 125 || v.NVLinkGBs != 150 || v.NICGBs != 12.5 {
		t.Errorf("V100 class spec off: %+v", v)
	}
	a := mustClass(t, "A100", 1)
	if a.NICGBs != 50 || a.TFLOPs != 312 {
		t.Errorf("A100 class spec off: %+v", a)
	}
	if _, err := ClassForGPU("H100", 1); err == nil {
		t.Error("unknown GPU type should error")
	}
}

// A single class — however it is spelled — must collapse to the uniform
// cluster so every pre-heterogeneity closed form prices it identically.
func TestWithClassesSingleClassDegenerates(t *testing.T) {
	got, err := V100Cluster(2).WithClasses(mustClass(t, "V100", 2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Heterogeneous() {
		t.Fatal("single class should collapse to the uniform cluster")
	}
	want := V100Cluster(2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degenerate cluster differs: got %+v want %+v", got, want)
	}
	for _, tier := range []Tier{TierNVLink, TierNIC, TierSpine} {
		if g, w := got.TierGBsPerGPU(tier), want.TierGBsPerGPU(tier); g != w {
			t.Errorf("tier %v bandwidth %g != uniform %g", tier, g, w)
		}
	}
	if got.SlowestTFLOPs() != want.Node.GPU.PeakTFLOPS {
		t.Errorf("degenerate compute %g != %g", got.SlowestTFLOPs(), want.Node.GPU.PeakTFLOPS)
	}

	// Same-spec neighbors merge before the collapse.
	got2, err := V100Cluster(1).WithClasses(mustClass(t, "V100", 1), mustClass(t, "V100", 3))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Heterogeneous() || got2.Nodes != 4 {
		t.Errorf("2 same-spec classes should merge to a uniform 4-node cluster, got %+v", got2)
	}
}

func TestWithClassesValidation(t *testing.T) {
	bad := mustClass(t, "V100", 1)
	bad.TFLOPs = -1
	_, err := V100Cluster(1).WithClasses(mustClass(t, "A100", 1), bad)
	var spec *SpecError
	if !errors.As(err, &spec) {
		t.Fatalf("want *SpecError, got %v", err)
	}
	if spec.Field != "Classes[1].TFLOPs" {
		t.Errorf("error names %q, want Classes[1].TFLOPs", spec.Field)
	}

	// A hand-assembled Nodes/class-count mismatch fails validation.
	c := mixedCluster(t)
	c.Nodes = 5
	if err := c.Validate(); err == nil {
		t.Error("node-count mismatch should fail validation")
	}
}

func TestHeteroGeometry(t *testing.T) {
	c := mixedCluster(t)
	if got := c.TotalGPUs(); got != 24 {
		t.Fatalf("TotalGPUs = %d, want 24", got)
	}
	if c.Nodes != 3 {
		t.Fatalf("Nodes = %d, want 3", c.Nodes)
	}
	if c.ClassOf(0) != 0 || c.ClassOf(15) != 0 || c.ClassOf(16) != 1 || c.ClassOf(23) != 1 {
		t.Error("ClassOf misassigns the class boundary")
	}
	if !c.SameNode(0, 7) || c.SameNode(7, 8) || !c.SameNode(16, 23) || c.SameNode(15, 16) {
		t.Error("SameNode wrong across the class boundary")
	}
	if c.TierOf(0, 1) != TierNVLink || c.TierOf(0, 8) != TierNIC || c.TierOf(0, 16) != TierNIC {
		t.Error("flat mixed fleet should classify node peers NVLink, others NIC")
	}

	// Rack grouping counts nodes across classes: 2 nodes per rack puts the
	// V100 node alone in the second rack.
	ct, err := c.WithTopology(Topology{NodesPerRack: 2, Oversubscription: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !ct.SameRack(0, 8) || ct.SameRack(8, 16) {
		t.Error("SameRack wrong on the mixed fleet")
	}
	if ct.TierOf(8, 16) != TierSpine {
		t.Error("cross-rack pair should classify as spine")
	}
}

func TestHeteroBandwidthAndComputeMins(t *testing.T) {
	c := mixedCluster(t)
	// Fleet-wide effective rates take the weakest class.
	if got := c.PerGPUNICGBs(); got != 12.5/8 {
		t.Errorf("PerGPUNICGBs = %g, want V100 share %g", got, 12.5/8)
	}
	if got := c.MinNVLinkGBs(); got != 150 {
		t.Errorf("MinNVLinkGBs = %g, want 150", got)
	}
	if c.SlowestTFLOPs() != 125 || c.FastestTFLOPs() != 312 {
		t.Errorf("TFLOPs bounds %g/%g, want 125/312", c.SlowestTFLOPs(), c.FastestTFLOPs())
	}
	straggler, ok := c.StragglerClass()
	if !ok || straggler.Name != "V100" {
		t.Errorf("StragglerClass = %+v/%t, want the V100 slice", straggler, ok)
	}
	// Per-device rates resolve each rank's own class.
	if got := c.TierGBsPerGPUOf(0, TierNIC); got != 50.0/8 {
		t.Errorf("A100 rank NIC share = %g, want %g", got, 50.0/8)
	}
	if got := c.TierGBsPerGPUOf(16, TierNIC); got != 12.5/8 {
		t.Errorf("V100 rank NIC share = %g, want %g", got, 12.5/8)
	}
	if got := c.TierGBsPerGPUOf(16, TierNVLink); got != 150 {
		t.Errorf("V100 rank NVLink = %g, want 150", got)
	}
}

func TestUniformViewPreservesGPUCount(t *testing.T) {
	c := mixedCluster(t)
	u := c.Uniform()
	if u.Heterogeneous() {
		t.Fatal("Uniform() must strip classes when every class has the base node size")
	}
	if u.TotalGPUs() != c.TotalGPUs() {
		t.Errorf("Uniform() changed the GPU count: %d != %d", u.TotalGPUs(), c.TotalGPUs())
	}
	// The blind view prices every node as the (fast) base class.
	if u.SlowestTFLOPs() != 312 {
		t.Errorf("uniform view compute %g, want base A100 312", u.SlowestTFLOPs())
	}

	// 2x8 A100 + 1x4 V100 = 20 GPUs: a 4-GPU node is not half a base node,
	// so the view keeps the real node layout and prices every GPU at the
	// base class's per-GPU rates.
	small := mustClass(t, "V100", 1)
	small.GPUsPerNode = 4
	odd, err := ClusterFromClasses([]NodeClass{mustClass(t, "A100", 2), small})
	if err != nil {
		t.Fatal(err)
	}
	uo := odd.Uniform()
	if uo.TotalGPUs() != 20 || uo.Nodes != 3 {
		t.Errorf("uniform view of %s has %d GPUs on %d nodes, want 20 on 3", odd, uo.TotalGPUs(), uo.Nodes)
	}
	if uo.SlowestTFLOPs() != 312 || uo.MinNVLinkGBs() != 300 || uo.PerGPUNICGBs() != 50.0/8 {
		t.Errorf("uniform view rates %g TFLOPs, %g NVLink, %g NIC per GPU, want the A100 base's 312, 300, %g",
			uo.SlowestTFLOPs(), uo.MinNVLinkGBs(), uo.PerGPUNICGBs(), 50.0/8)
	}
	if !uo.SameNode(16, 19) || uo.SameNode(15, 16) || uo.MinGPUsPerNode() != 4 {
		t.Errorf("uniform view %s lost the 4-GPU node's layout", uo)
	}
	// Uniform clusters are their own uniform view.
	v := V100Cluster(2)
	if !reflect.DeepEqual(v.Uniform(), v) {
		t.Error("Uniform() should be the identity on a uniform cluster")
	}
}

func TestClusterFromClassesNaming(t *testing.T) {
	c := mixedCluster(t)
	if c.Name != "A100+V100" {
		t.Errorf("Name = %q, want A100+V100", c.Name)
	}
	s := c.String()
	if !strings.Contains(s, "2x8 A100") || !strings.Contains(s, "1x8 V100") {
		t.Errorf("String() = %q should list the class mix", s)
	}
	if _, err := ClusterFromClasses(nil); err == nil {
		t.Error("empty class list should error")
	}
	nc := mustClass(t, "V100", 1)
	nc.Name = "custom"
	if _, err := ClusterFromClasses([]NodeClass{nc}); err == nil {
		t.Error("first class with unknown GPU name should error")
	}
}
