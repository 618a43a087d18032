package experiments

import (
	"fmt"
	"math"

	"lancet"
	"lancet/internal/baselines"
	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/model"
	"lancet/internal/sim"
)

func init() {
	Register(Experiment{
		Name: "fig2", Order: 10,
		Desc: "execution-time breakdown of the unoptimized iteration with the Curr./Opt. overlap bounds",
		Run:  func(Params) (*Table, error) { return Fig2Breakdown() },
	})
	Register(Experiment{
		Name: "fig13", Order: 50,
		Desc: "iteration decomposition: non-overlapped comm, overlap and compute per framework",
		Run:  func(Params) (*Table, error) { return Fig13Decomposition() },
	})
}

// Fig2Breakdown reproduces Fig. 2: execution-time breakdown of the
// unoptimized iteration under Tutel and DeepSpeed kernels on 16 and 32 V100
// GPUs, with the two bounds the paper motivates from it — Curr., the best
// any expert-only overlap can achieve (expert computation fully hidden by
// all-to-all), and Opt., the ideal where all-to-all is fully overlapped by
// computation.
func Fig2Breakdown() (*Table, error) {
	t := &Table{
		ID:    "fig2",
		Title: "Breakdown of GPT2-MoE execution (V100), with Curr./Opt. overlap bounds",
		Note: "Orig: no overlap. Curr: expert computation completely hidden by all-to-all " +
			"(the ceiling of Tutel/FasterMoE-style methods). Opt: all-to-all fully " +
			"overlapped by computation. Speedups are relative to Orig (paper: 1.16x/1.36x " +
			"for Tutel at 16 GPUs).",
		Header: []string{"GPUs", "Framework", "A2A (ms)", "Experts (ms)", "Others (ms)",
			"Orig (ms)", "Curr (ms)", "Curr speedup", "Opt (ms)", "Opt speedup"},
	}
	for _, gpus := range []int{16, 32} {
		cluster, err := hw.ClusterForGPUs("V100", gpus)
		if err != nil {
			return nil, err
		}
		cfg := model.GPT2SMoE()
		cfg.BatchPerGPU = cfg.PaperBatchSize("V100")
		b, err := model.Build(cfg, cluster)
		if err != nil {
			return nil, err
		}
		for _, spec := range []baselines.Spec{baselines.Tutel, baselines.DeepSpeed} {
			cm := cost.NewModel(cluster).WithComputeScale(spec.ComputeScale)
			ex := &sim.Executor{Cost: cm, JitterPct: 0.02, Seed: int64(gpus)}
			tl, err := ex.Run(b.Graph)
			if err != nil {
				return nil, err
			}
			a2a, expert := tl.AllToAllUs, tl.ExpertUs
			orig := tl.CommBusyUs + tl.ComputeBusyUs // fully serialized execution
			curr := orig - math.Min(expert, a2a)
			opt := orig - math.Min(a2a, tl.ComputeBusyUs)
			others := orig - a2a - expert
			t.AddRow(fmt.Sprint(gpus), spec.Name,
				ms(a2a), ms(expert), ms(others),
				ms(orig), ms(curr), ratio(orig, curr),
				ms(opt), ratio(orig, opt))
		}
	}
	return t, nil
}

func fwLabel(fw string) string {
	switch fw {
	case lancet.FrameworkDeepSpeed:
		return "DeepSpeed"
	case lancet.FrameworkRAF:
		return "RAF"
	case lancet.FrameworkTutel:
		return "Tutel"
	case lancet.FrameworkLancet:
		return "Lancet"
	}
	return fw
}

// Fig13Decomposition reproduces Fig. 13: iteration time decomposed into
// non-overlapped communication, overlap, and non-overlapped computation on
// 4 nodes (32 GPUs) of each cluster.
func Fig13Decomposition() (*Table, error) {
	t := &Table{
		ID:    "fig13",
		Title: "Iteration time decomposition on 4 nodes (32 GPUs)",
		Note: "Lancet overlaps more and, thanks to irregular all-to-alls that skip " +
			"padding, can also lower total communication. The GPT2-S/A100 DeepSpeed " +
			"cell is OOM as in the paper.",
		Header: []string{"Cluster", "Model", "Framework",
			"Non-overlapped comm (ms)", "Overlap (ms)", "Non-overlapped compute (ms)", "Total (ms)"},
	}
	for _, gpu := range []string{"V100", "A100"} {
		for _, mk := range []func(int) lancet.ModelConfig{lancet.GPT2SMoE, lancet.GPT2LMoE} {
			cfg := mk(0)
			sess, err := lancet.NewSession(cfg, lancet.MustCluster(gpu, 32))
			if err != nil {
				return nil, err
			}
			for _, fw := range []string{lancet.FrameworkLancet, lancet.FrameworkTutel,
				lancet.FrameworkRAF, lancet.FrameworkDeepSpeed} {
				plan, err := sess.Baseline(fw)
				if err != nil {
					return nil, err
				}
				if plan.OOM {
					t.AddRow(gpu, cfg.Name, fwLabel(fw), "OOM", "OOM", "OOM", "OOM")
					continue
				}
				r, err := plan.Simulate(13)
				if err != nil {
					return nil, err
				}
				t.AddRow(gpu, cfg.Name, fwLabel(fw),
					fmt.Sprintf("%.1f", r.NonOverlappedCommMs),
					fmt.Sprintf("%.1f", r.OverlapMs),
					fmt.Sprintf("%.1f", r.NonOverlappedComputeMs),
					fmt.Sprintf("%.1f", r.IterationMs))
			}
		}
	}
	return t, nil
}
