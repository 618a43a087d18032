package experiments

import (
	"fmt"
	"math"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/passes/partition"
)

func init() {
	Register(Experiment{
		Name: "fig6", Order: 20,
		Desc: "partition-range sweep with the DP pick: the U-shape motivating range selection",
		Run:  func(Params) (*Table, error) { return Fig6PartitionRange() },
	})
}

// Fig6PartitionRange reproduces Fig. 6: normalized forward time as the
// partition range around each MoE layer grows, for the paper's two
// configurations on 16 A100 GPUs (32 experts). "Orig" is unpartitioned;
// range 0 partitions only the all-to-alls and experts (Tutel's focus
// region); larger ranges fold that many milliseconds of surrounding
// computation into the pipeline. The dynamic-programming pick is appended —
// it should sit at or below the sweep's minimum.
func Fig6PartitionRange() (*Table, error) {
	t := &Table{
		ID:    "fig6",
		Title: "Effect of partition range on forward time (16 A100 GPUs, 32 experts)",
		Note: "Normalized to unpartitioned forward time; the U-shape (partitioning helps " +
			"until launch overheads dominate) and the DP landing at/below the minimum " +
			"are the reproduction targets.",
		Header: []string{"Config", "Range (ms of ops around MoE layer)", "Normalized fwd time"},
	}
	configs := []struct {
		label  string
		layers int
		seq    int
		batch  int
	}{
		{"8 layers, seq 512, batch 64", 8, 512, 64},
		{"16 layers, seq 1024, batch 12", 16, 1024, 12},
	}
	cluster, err := hw.ClusterForGPUs("A100", 16)
	if err != nil {
		return nil, err
	}
	for _, c := range configs {
		cfg := model.GPT2SMoE()
		cfg.Layers = c.layers
		cfg.SeqLen = c.seq
		cfg.BatchPerGPU = c.batch
		b, err := model.Build(cfg, cluster)
		if err != nil {
			return nil, err
		}
		cm := cost.NewModel(cluster)
		fwdEnd := forwardEnd(b.Graph)
		serialFwd := 0.0
		for i := 0; i < fwdEnd; i++ {
			serialFwd += cm.PredictInstr(b.Graph.Instr(i))
		}
		t.AddRow(c.label, "Orig (no partition)", "1.000")

		for _, rangeMs := range []float64{0, 3, 6, 9, 12, 15, 18} {
			total, ok := sweepForwardTime(b, cm, fwdEnd, serialFwd, rangeMs*1000)
			if !ok {
				t.AddRow(c.label, fmt.Sprintf("%.0f", rangeMs), "n/a")
				continue
			}
			t.AddRow(c.label, fmt.Sprintf("%.0f", rangeMs), fmt.Sprintf("%.3f", total/serialFwd))
		}

		res, err := partition.Run(b.Graph, cm, partition.Options{GatePartialBatch: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.label, "DP solution", fmt.Sprintf("%.3f", res.ForwardUs/serialFwd))
	}
	return t, nil
}

// sweepForwardTime partitions every MoE layer with a window extending
// rangeUs/2 of predicted op time before the gate and after the gather
// (range 0 = the bare a2a+experts core) and returns the resulting forward
// time under the best partition count per window.
func sweepForwardTime(b *model.Built, cm *cost.Model, fwdEnd int, serialFwd, rangeUs float64) (float64, bool) {
	g := b.Graph
	total := serialFwd
	for _, h := range b.MoE {
		start, end := h.DispatchA2A, h.CombineA2A
		if rangeUs > 0 {
			start, end = h.Gate, h.Gather
			budget := rangeUs / 2
			for acc := 0.0; start > 0 && acc < budget; start-- {
				in := g.Instr(start - 1)
				if in.Phase != ir.Forward || in.Op == ir.OpAllToAll {
					break
				}
				acc += cm.PredictInstr(in)
			}
			budget = rangeUs / 2
			for acc := 0.0; end+1 < fwdEnd && acc < budget; end++ {
				in := g.Instr(end + 1)
				if in.Op == ir.OpAllToAll || in.Op == ir.OpLoss {
					break
				}
				acc += cm.PredictInstr(in)
			}
		}
		best := math.Inf(1)
		for k := 2; k <= 8; k++ {
			p, ok := partition.PipelinePredictUs(g, cm, start, end, k, true)
			if !ok {
				return 0, false
			}
			if p < best {
				best = p
			}
		}
		serial := 0.0
		for _, in := range g.Instrs[start : end+1] {
			serial += cm.PredictInstr(in)
		}
		total += best - serial
	}
	return total, true
}

func forwardEnd(g *ir.Graph) int {
	for i, in := range g.Instrs {
		if in.Phase != ir.Forward {
			return i
		}
	}
	return len(g.Instrs)
}
