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
		Desc: "degraded replay vs warm-started re-plan after losing fleet nodes",
		Run:  NodeLoss,
	})
	Register(Experiment{
		Name: "elastic_resize", Order: 140,
		Desc: "re-plan cost curve across an elastic fleet resize with chained warm starts",
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
// plan's pipelines verbatim on the survivors against a re-plan warm-started
// from those same pipelines. The survivors' per-GPU batch is scaled up so
// they carry at least the intact fleet's token budget, so degraded rows are
// never optimistically fast. The DP-evaluations column is the re-plan cost
// the stale plan's hint cuts relative to planning the degraded fleet cold —
// the argument for keeping stale plans around as warm starts (DESIGN.md
// §14). Skewed workloads are the interesting regime: with a hot expert or a
// Zipf tail, the stale plan's group cuts no longer match the survivors'
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
		Title: "Node loss: degraded replay vs warm-started re-plan (GPT2-S-MoE, Switch gate)",
		Note: "Each row loses the listed nodes from a planned fleet. Degraded replays the " +
			"stale plan's pipelines verbatim on the survivors (batch scaled to preserve the " +
			"global token budget); re-planned runs the partition DP warm-started from the " +
			"stale pipelines. Latencies are means of 3 seeded iterations. DP evals compares " +
			"the warm-started re-plan against planning the degraded fleet cold.",
		Header: []string{"Fleet", "Lost", "Intact (ms)", "Degraded (ms)", "Re-planned (ms)",
			"DP evals (warm/cold)", "Re-plan speedup"},
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
			fmt.Sprintf("%d/%d", rep.ReplanEvaluations, rep.ColdEvaluations),
			fmt.Sprintf("%.3fx", rep.ReplanSpeedup))
	}
	return t, nil
}

// ElasticResize walks a fleet through a grow-and-shrink schedule, re-planning
// at each size warm-started from the previous size's chosen pipelines
// (DESIGN.md §14, §17). On this schedule the warm plans equal the cold ones,
// although a hint can change a plan in general; the saved column is the
// fraction of partition-DP evaluations the chained hint eliminates, i.e.
// the re-plan cost curve an elastic scheduler actually pays.
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
		Title: "Elastic resize: warm-started re-plan cost across a fleet schedule (V100, GPT2-S-MoE)",
		Note: "The fleet grows and shrinks through the schedule; each size re-plans " +
			"warm-started from the previous size's pipelines. Warm plans are byte-identical " +
			"to cold ones; the saved column is the DP work the chained hint eliminates. " +
			"Latencies are means of 3 seeded iterations.",
		Header: []string{"Step", "GPUs", "Iteration (ms)", "DP evals (warm/cold)", "Saved"},
	}
	for i, st := range steps {
		saved := "-"
		if i > 0 && st.ColdEvaluations > 0 {
			saved = fmt.Sprintf("%.0f%%",
				100*(1-float64(st.WarmEvaluations)/float64(st.ColdEvaluations)))
		}
		t.AddRow(fmt.Sprint(i+1), fmt.Sprint(st.GPUs),
			fmt.Sprintf("%.1f", st.IterationMs),
			fmt.Sprintf("%d/%d", st.WarmEvaluations, st.ColdEvaluations),
			saved)
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
