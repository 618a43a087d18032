package dwsched

import (
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/model"
)

func benchFixture(b *testing.B) (*model.Built, *cost.Model) {
	b.Helper()
	cfg := model.GPT2LMoE()
	cfg.BatchPerGPU = 8
	cl := hw.V100Cluster(4)
	built, err := model.Build(cfg, cl)
	if err != nil {
		b.Fatal(err)
	}
	return built, cost.NewModel(cl)
}

// BenchmarkDWSchedulePass measures the full pass on the 24-layer model:
// labelling, best-fit assignment and the reordered copy. perf_floor.txt
// ratchets it.
func BenchmarkDWSchedulePass(b *testing.B) {
	built, cm := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(built.Graph, cm, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDWBestFitVsFirstFit is the design-choice ablation: best-fit
// should recover at least as much overlap per unit work as first-fit.
func BenchmarkDWBestFitVsFirstFit(b *testing.B) {
	built, cm := benchFixture(b)
	for _, tc := range []struct {
		name string
		s    Strategy
	}{{"BestFit", BestFit}, {"FirstFit", FirstFit}} {
		b.Run(tc.name, func(b *testing.B) {
			var overlap float64
			for i := 0; i < b.N; i++ {
				res, err := Run(built.Graph, cm, Options{Strategy: tc.s})
				if err != nil {
					b.Fatal(err)
				}
				overlap = res.OverlappedUs
			}
			b.ReportMetric(overlap/1000, "overlap_ms")
		})
	}
}
