package experiments

import (
	"fmt"
	"slices"

	"lancet"
)

func init() {
	Register(Experiment{
		Name: "hetero_planning", Order: 137,
		Desc: "uniform-planned vs hetero-planned iteration time on mixed-generation fleets",
		Run:  HeteroPlanning,
	})
}

// heteroMix is one mixed fleet: a fast slice the blind planner assumes
// fleet-wide and a slow slice that actually drags the iteration.
type heteroMix struct {
	fastNodes, slowNodes int
}

func (m heteroMix) cluster() (lancet.Cluster, error) {
	fast, err := lancet.ClassForGPU("A100", m.fastNodes)
	if err != nil {
		return lancet.Cluster{}, err
	}
	slow, err := lancet.ClassForGPU("V100", m.slowNodes)
	if err != nil {
		return lancet.Cluster{}, err
	}
	return lancet.NewHeteroCluster(fast, slow)
}

// HeteroPlanning is the headline number of heterogeneity-aware planning
// (DESIGN.md §12): for each A100/V100 node mix, the same workload is
// planned twice — once by a planner that believes the whole fleet matches
// the fast base class (View.UniformHardware), once by the planner pricing
// the slowest participating class — and both plans are replayed on the same
// mixed fleet. The speedup column is what knowing the fleet *mix* buys: the
// blind planner thinks compute is 2.5x faster and the NICs 4x fatter than
// the V100 slice delivers, so it mis-sizes its DP groups (the auto-gamma is
// priced with the planner's own model, like every pass) and its pipeline
// granularity. The straggler column is the simulator's per-class
// attribution of the compute time the iteration spends waiting on the slow
// class. Options are the full defaults: the ablation handicaps the whole
// default planning pipeline, not one pinned knob.
func HeteroPlanning(p Params) (*Table, error) {
	t := &Table{
		ID:    "hetero_planning",
		Title: "Heterogeneity-aware vs hetero-blind planning (mixed A100 + V100 fleet, GPT2-S-MoE, Switch gate)",
		Note: "The blind planner prices every node as the fast base class; the aware one " +
			"prices compute at the slowest class and collectives at the weakest per-tier " +
			"bandwidth. Plans are replayed on the same mixed fleet (mean of 3 seeds). " +
			"Straggler is the V100 slice's per-class compute penalty under the aware plan.",
		Header: []string{"Fleet", "Uniform-planned (ms)", "Hetero-planned (ms)",
			"Pipelines (blind/aware)", "V100 straggler (ms)", "Speedup"},
	}
	mixes := []heteroMix{{2, 2}, {3, 3}, {4, 4}}
	if p.Quick {
		mixes = []heteroMix{{2, 2}, {3, 3}}
	}
	for _, mix := range mixes {
		cluster, err := mix.cluster()
		if err != nil {
			return nil, err
		}
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), cluster)
		if err != nil {
			return nil, err
		}
		row, aware, err := blindVsAware(sess, lancet.Options{}, lancet.View.UniformHardware,
			fmt.Sprintf("%dxA100+%dxV100", mix.fastNodes, mix.slowNodes))
		if err != nil {
			return nil, err
		}
		t.AddRow(slices.Insert(row, 4, fmt.Sprintf("%.1f", aware.MeanReport.StragglerClassMs["V100"]))...)
	}
	return t, nil
}
