// Internal test package: the property below reads the unexported fields of
// DrainArgmax to recompute the named link's drain from the matrix alone.
package netsim

import (
	"math/rand"
	"testing"

	"lancet/internal/hw"
)

// linkDrainUs drains one link from scratch: the bytes device a.dev sends
// (or receives) on tier a.tier, summed over the matrix in the drain loop's
// order, at that device's tier bandwidth. Spine pairs also load the NIC.
func linkDrainUs(c hw.Cluster, sizes [][]int64, a DrainArgmax) float64 {
	load := 0.0
	for peer := range sizes {
		src, dst := a.dev, peer
		if a.ingress {
			src, dst = peer, a.dev
		}
		if src == dst {
			continue
		}
		if t := c.TierOf(src, dst); t == a.tier || (a.tier == hw.TierNIC && t == hw.TierSpine) {
			load += float64(sizes[src][dst])
		}
	}
	return load / effBW(c.TierGBsPerGPUOf(a.dev, a.tier)*1e9, load) * 1e6
}

// Property: on random matrices over flat, racked and mixed-class fleets,
// the link AllToAllTimedArgmax names drains in exactly TierUs[Bottleneck],
// and no link on any tier drains longer than its tier's bound.
func TestArgmaxDrainEqualsBottleneckProperty(t *testing.T) {
	racked, err := hw.V100Cluster(4).WithTopology(hw.Topology{NodesPerRack: 2, Oversubscription: 4})
	if err != nil {
		t.Fatal(err)
	}
	a100, err := hw.ClassForGPU("A100", 2)
	if err != nil {
		t.Fatal(err)
	}
	v100, err := hw.ClassForGPU("V100", 1)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := hw.ClusterFromClasses([]hw.NodeClass{a100, v100})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []hw.Cluster{hw.V100Cluster(2), hw.A100Cluster(4), hw.V100Cluster(8), racked, mixed} {
		n := New(c)
		g := c.TotalGPUs()
		for trial := 0; trial < 40; trial++ {
			// Sparse-to-dense random traffic, sometimes with a hot column.
			density := rng.Float64()
			hot := rng.Intn(g)
			sizes := make([][]int64, g)
			for src := range sizes {
				sizes[src] = make([]int64, g)
				for dst := range sizes[src] {
					if rng.Float64() < density {
						sizes[src][dst] = rng.Int63n(1 << 24)
					}
					if dst == hot && trial%3 == 0 {
						sizes[src][dst] += 1 << 24
					}
				}
			}
			timing, arg, err := n.AllToAllTimedArgmax(sizes)
			if err != nil {
				t.Fatal(err)
			}
			if timing.TotalUs == 0 {
				continue
			}
			if arg.tier != timing.Bottleneck {
				t.Fatalf("%s trial %d: argmax on tier %v, bottleneck %v", c.Name, trial, arg.tier, timing.Bottleneck)
			}
			if got, want := linkDrainUs(c, sizes, arg), timing.TierUs[timing.Bottleneck]; got != want {
				t.Errorf("%s trial %d: argmax link %+v drains in %v us, bottleneck bound %v us", c.Name, trial, arg, got, want)
			}
			for tier := hw.Tier(0); tier < hw.NumTiers; tier++ {
				for d := 0; d < g; d++ {
					for _, ingress := range []bool{false, true} {
						link := DrainArgmax{tier: tier, dev: d, ingress: ingress}
						if us := linkDrainUs(c, sizes, link); us > timing.TierUs[tier] || us > timing.TierUs[timing.Bottleneck] {
							t.Errorf("%s trial %d: link %+v drains in %v us, above its tier bound %v us or the bottleneck's %v us",
								c.Name, trial, link, us, timing.TierUs[tier], timing.TierUs[timing.Bottleneck])
						}
					}
				}
			}
		}
	}
}
