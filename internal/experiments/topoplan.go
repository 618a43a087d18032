package experiments

import (
	"fmt"

	"lancet"
)

func init() {
	Register(Experiment{
		Name: "topology_planning", Order: 136,
		Desc: "flat-planned vs topology-planned iteration time across spine oversubscription",
		Run:  TopologyPlanning,
	})
}

// TopologyPlanning is the headline number of topology-aware planning
// (DESIGN.md §11): for each spine oversubscription factor, the same
// inter-node-bound workload is planned twice — once by a planner that
// believes the fabric is flat (View.Flat), once by the planner
// pricing the real hierarchy — and both plans are replayed in the same
// hierarchical simulation. The speedup column is what knowing the fabric
// *shape* buys: the blind planner under-sizes its partition pipelines and
// under-fills the dW-overlap windows because it thinks every all-to-all is
// cheap. GroupUs is pinned so both planners cut the program into identical
// DP groups and the comparison isolates pricing knowledge from group-size
// coupling.
func TopologyPlanning(p Params) (*Table, error) {
	t := &Table{
		ID:    "topology_planning",
		Title: "Topology-aware vs topology-blind planning (16 V100 GPUs, GPT2-S-MoE, Switch gate)",
		Note: "Per-node racks behind an oversubscribed spine. Both planners see the same " +
			"cluster; only the aware one prices the spine. Plans are replayed under the " +
			"same hierarchical fabric (mean of 3 seeds). Pipeline columns show the plans " +
			"actually differ.",
		Header: []string{"Oversub", "Flat-planned (ms)", "Topology-planned (ms)",
			"Pipelines (blind/aware)", "Speedup"},
	}
	oversubs := []float64{2, 4, 8}
	if p.Quick {
		oversubs = []float64{4, 8}
	}
	for _, oversub := range oversubs {
		cluster, err := lancet.MustCluster("V100", 16).WithTopology(
			lancet.Topology{NodesPerRack: 1, Oversubscription: oversub})
		if err != nil {
			return nil, err
		}
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), cluster)
		if err != nil {
			return nil, err
		}
		row, _, err := blindVsAware(sess, lancet.Options{GroupUs: 1000}, lancet.View.Flat, fmt.Sprintf("%g:1", oversub))
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}
