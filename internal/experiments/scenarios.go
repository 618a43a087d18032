package experiments

import (
	"fmt"
	"slices"
	"strings"

	"lancet"
)

func init() {
	Register(Experiment{
		Name: "node_loss", Order: 139,
		Desc: "degraded replay vs re-plan after losing fleet nodes",
		Run:  NodeLoss,
	})
	Register(Experiment{
		Name: "elastic_resize", Order: 140,
		Desc: "re-plan cost curve across an elastic fleet resize",
		Run:  ElasticResize,
	})
	Register(Experiment{
		Name: "multi_job_contention", Order: 141,
		Desc: "sole-tenant-planned vs contention-planned iteration time under shared spines",
		Run:  MultiJobContention,
	})
}

// lossCase is one node-loss scenario: a uniform fleet, the nodes it loses,
// and the workload shape that makes re-planning worth the DP run.
type lossCase struct {
	gpuType string
	gpus    int
	lost    []int
	skew    float64 // Zipf exponent; 0 means use hot instead
	hot     float64 // hot-expert fraction
}

func (c lossCase) workload() string {
	if c.skew > 0 {
		return fmt.Sprintf("skew %g", c.skew)
	}
	return fmt.Sprintf("hot %g", c.hot)
}

// NodeLoss is the failure headline of the scenario planners (DESIGN.md §17):
// each row drops nodes from a planned fleet and compares replaying the stale
// plan's pipelines verbatim on the survivors against re-planning the
// survivors. The survivors' per-GPU batch is scaled up so they carry at
// least the intact fleet's token budget, so degraded rows are never
// optimistically fast. The DP-evaluations column is what the re-plan costs.
// Skewed workloads are the interesting regime: with a hot expert or a Zipf
// tail, the stale plan's group cuts no longer match the survivors'
// all-to-all shape and re-planning wins back real milliseconds.
func NodeLoss(p Params) (*Table, error) {
	cases := []lossCase{
		{"V100", 16, []int{0}, 1.2, 0},
		{"V100", 16, []int{0}, 0, 0.4},
		{"A100", 16, []int{0}, 1.2, 0},
		{"V100", 24, []int{0}, 1.2, 0},
		{"V100", 24, []int{0, 1}, 1.2, 0},
	}
	if p.Quick {
		cases = cases[:3]
	}
	t := &Table{
		ID:    "node_loss",
		Title: "Node loss: degraded replay vs re-plan (GPT2-S-MoE, Switch gate)",
		Note: "Each row loses the listed nodes from a planned fleet. Degraded replays the " +
			"stale plan's pipelines verbatim on the survivors (batch scaled to preserve the " +
			"global token budget); re-planned runs the partition DP for the survivors. " +
			"Latencies are means of 3 seeded iterations. DP evals is the re-plan's " +
			"partition-DP evaluation count.",
		Header: []string{"Fleet", "Lost", "Intact (ms)", "Degraded (ms)", "Re-planned (ms)",
			"DP evals", "Re-plan speedup"},
	}
	for _, c := range cases {
		cluster, err := lancet.NewCluster(c.gpuType, c.gpus)
		if err != nil {
			return nil, err
		}
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), cluster)
		if err != nil {
			return nil, err
		}
		sess.WorkloadSkew = c.skew
		sess.WorkloadHotExpert = c.hot
		rep, err := sess.NodeLoss(nil, c.lost, lancet.Options{}, 17)
		if err != nil {
			return nil, err
		}
		lost := make([]string, len(rep.LostNodes))
		for i, n := range rep.LostNodes {
			lost[i] = fmt.Sprint(n)
		}
		t.AddRow(fmt.Sprintf("%dx%s %s", c.gpus, c.gpuType, c.workload()),
			strings.Join(lost, ","),
			fmt.Sprintf("%.1f", rep.IntactMs),
			fmt.Sprintf("%.1f", rep.DegradedMs),
			fmt.Sprintf("%.1f", rep.ReplannedMs),
			fmt.Sprint(rep.ReplanEvaluations),
			fmt.Sprintf("%.3fx", rep.ReplanSpeedup))
	}
	return t, nil
}

// ElasticResize walks a fleet through a grow-and-shrink schedule, planning
// each size once (DESIGN.md §17): the re-plan cost curve an elastic
// scheduler pays, in latency and partition-DP evaluations.
func ElasticResize(p Params) (*Table, error) {
	schedule := []int{16, 32, 64, 32, 16}
	if p.Quick {
		schedule = []int{16, 32, 16}
	}
	steps, err := lancet.ElasticResize(lancet.GPT2SMoE(0), "V100", schedule, lancet.Options{}, 17)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "elastic_resize",
		Title: "Elastic resize: re-plan cost across a fleet schedule (V100, GPT2-S-MoE)",
		Note: "The fleet grows and shrinks through the schedule and each size is planned " +
			"once. Every plan is a cold plan, so a size plans the same wherever it falls " +
			"in the schedule. Latencies are means of 3 seeded iterations.",
		Header: []string{"Step", "GPUs", "Iteration (ms)", "DP evals"},
	}
	for i, st := range steps {
		t.AddRow(fmt.Sprint(i+1), fmt.Sprint(st.GPUs),
			fmt.Sprintf("%.1f", st.IterationMs),
			fmt.Sprint(st.Evaluations))
	}
	return t, nil
}

// MultiJobContention is the headline number of contention-aware planning
// (DESIGN.md §11, §17): a multi-rack fleet shares its spine with co-located
// jobs (Topology.SpineShare), and the same workload is planned twice — once
// by a planner that believes this job owns the spine alone
// (View.SoleTenant), once by the planner pricing the contended share — and
// both plans are replayed on the same shared fabric. The speedup column is
// what knowing the *neighbors* buys: the sole-tenant planner thinks
// cross-rack all-to-alls are 1/share cheaper than they run, so it under-cuts
// its pipelines exactly like the flat-topology ablation. GroupUs is pinned so
// both planners cut identical DP groups and the comparison isolates pricing
// knowledge.
func MultiJobContention(p Params) (*Table, error) {
	shares := []float64{1, 0.5, 0.25}
	if p.Quick {
		shares = []float64{0.5, 0.25}
	}
	t := &Table{
		ID:    "multi_job_contention",
		Title: "Contention-aware vs sole-tenant planning (16 V100 GPUs, shared spine, GPT2-S-MoE)",
		Note: "Per-node racks share the spine with co-located jobs; this job keeps the " +
			"listed fraction. Both planners see the same cluster; only the aware one prices " +
			"the share. Plans are replayed under the same shared fabric (mean of 3 seeds). " +
			"A2A is the aware plan's all-to-all time on the contended spine.",
		Header: []string{"Spine share", "Sole-planned (ms)", "Contention-planned (ms)",
			"A2A (ms)", "Pipelines (blind/aware)", "Speedup"},
	}
	for _, share := range shares {
		cluster, err := lancet.MustCluster("V100", 16).WithTopology(
			lancet.Topology{NodesPerRack: 1, SpineShare: share})
		if err != nil {
			return nil, err
		}
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), cluster)
		if err != nil {
			return nil, err
		}
		row, aware, err := blindVsAware(sess, lancet.Options{GroupUs: 1000}, lancet.View.SoleTenant, fmt.Sprintf("%g", share))
		if err != nil {
			return nil, err
		}
		t.AddRow(slices.Insert(row, 3, fmt.Sprintf("%.1f", aware.MeanReport.AllToAllMs))...)
	}
	return t, nil
}
