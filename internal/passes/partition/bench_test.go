package partition

import (
	"strings"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/passes/dwsched"
)

func benchFixture(tb testing.TB) (*model.Built, *cost.Model) {
	tb.Helper()
	cfg := model.GPT2SMoE()
	cfg.BatchPerGPU = 16
	cl := hw.V100Cluster(2)
	built, err := model.Build(cfg, cl)
	if err != nil {
		tb.Fatal(err)
	}
	return built, cost.NewModel(cl)
}

// BenchmarkPartitionPass measures the DP + axis inference + rewrite
// (ratcheted by perf_floor.txt).
func BenchmarkPartitionPass(b *testing.B) {
	built, cm := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(built.Graph, cm, Options{GatePartialBatch: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAxisInference isolates the constraint solver the DP window loop
// runs — solve plus max-parts on the pooled scratch — on the full MoE
// window.
func BenchmarkAxisInference(b *testing.B) {
	built, _ := benchFixture(b)
	h := built.MoE[0]
	window := built.Graph.Instrs[h.Gate : h.Gather+1]
	sc := getScratch()
	defer putScratch(sc)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sc.solveAxes(built.Graph, window, true) {
			b.Fatal("window must be solvable")
		}
		sink += sc.maxParts(built.Graph)
	}
	_ = sink
}

// BenchmarkPipelineCost isolates one standalone P(i,n,k) evaluation (the
// DP's inner loop, counted in Fig. 15) with its axis solve.
func BenchmarkPipelineCost(b *testing.B) {
	built, cm := benchFixture(b)
	h := built.MoE[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := PipelinePredictUs(built.Graph, cm, h.Gate, h.Gather, 4, true); !ok {
			b.Fatal("window must be solvable")
		}
	}
}

// BenchmarkDPvsFixedRanges is the design-choice ablation of Sec. 5.1: the
// DP's predicted forward time versus the two fixed policies it subsumes
// (no partitioning, and Tutel's a2a+experts-only partitioning).
func BenchmarkDPvsFixedRanges(b *testing.B) {
	built, cm := benchFixture(b)
	b.Run("DP", func(b *testing.B) {
		var fwd float64
		for i := 0; i < b.N; i++ {
			res, err := Run(built.Graph, cm, Options{GatePartialBatch: true})
			if err != nil {
				b.Fatal(err)
			}
			fwd = res.ForwardUs
		}
		b.ReportMetric(fwd/1000, "fwd_ms")
	})
	b.Run("NoPartition", func(b *testing.B) {
		var fwd float64
		for i := 0; i < b.N; i++ {
			fwd = 0
			for _, in := range built.Graph.Instrs {
				if in.Phase != 0 {
					break
				}
				fwd += cm.PredictInstr(in)
			}
		}
		b.ReportMetric(fwd/1000, "fwd_ms")
	})
}

// BenchmarkPartitionDP measures the DP inner loop for one candidate window
// indexed and simulated from scratch — axis inference (solve plus
// max-parts), the window index build, the k-independent boundary cost,
// and a full k sweep of pipeline-span simulations on the pooled scratch.
// Run does this work per window of a start, minus what it resumes from
// the start's shorter windows (see startSweep); steady state must be 0
// allocs/op (ratcheted exactly by perf_floor.txt).
func BenchmarkPartitionDP(b *testing.B) {
	built, cm := benchFixture(b)
	h := built.MoE[0]
	window := built.Graph.Instrs[h.Gate : h.Gather+1]
	pr := cm.NewA2APricer(nil)
	sc := getScratch()
	defer putScratch(sc)
	sc.beginSweep(len(built.Graph.Instrs))
	// Warm the memoized instruction profiles and the scratch arenas.
	sink := windowSweep(built.Graph, cm, h.Gate, window, pr, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += windowSweep(built.Graph, cm, h.Gate, window, pr, sc)
	}
	_ = sink
}

// windowSweep is the per-window work of Run's DP loop on a solvable window:
// solve the axes, cap k at what they admit, price the boundary, index the
// window as a new start and simulate every partition count from scratch.
func windowSweep(g *ir.Graph, cm *cost.Model, start int, window []*ir.Instr, pr cost.A2APricer, sc *dpScratch) float64 {
	if !sc.solveAxes(g, window, true) {
		panic("window must be solvable")
	}
	kmax := min(8, sc.maxParts(g))
	boundary := boundaryCostUs(g, cm, start, window, sc)
	sc.prepareWindow(g, start, window)
	sum := 0.0
	for k := 2; k <= kmax; k++ {
		sum += sc.pipelineSpan(cm, window, k, pr, 1) + boundary
	}
	return sum
}

// startSweep is Run's DP loop for one start i on a warm scratch: it grows
// the window (i, j] a group at a time through the resumed index, and on
// each solvable window solves the axes, prices the boundary and sweeps
// every partition count up to 8 through the resumed simulations. It
// returns the summed prices and the number of windows priced.
func startSweep(g *ir.Graph, cm *cost.Model, bounds []int, i int, pr cost.A2APricer, sc *dpScratch) (float64, int) {
	sc.beginWindow(bounds[i])
	sum, priced := 0.0, 0
	for j := i + 1; j < len(bounds) && j <= i+12; j++ {
		window := g.Instrs[bounds[i]:bounds[j]]
		sc.extendWindow(g, window)
		if !windowHasA2A(window) || !sc.solveAxes(g, window, true) {
			continue
		}
		kmax := min(8, sc.maxParts(g))
		boundary := boundaryCostUs(g, cm, bounds[i], window, sc)
		for k := 2; k <= kmax; k++ {
			sum += sc.pipelineSpan(cm, window, k, pr, 1) + boundary
		}
		priced++
	}
	return sum, priced
}

// sessionFixture builds cfg on cl at the paper's batch size for the
// fleet's base GPU, runs the dW scheduling pass a Lancet session runs
// before partitioning, and returns the scheduled graph, its cost model and
// the partition options a session plans it with: a γ of about five groups
// per MoE layer, ι of 7 groups, ρ of 8.
func sessionFixture(tb testing.TB, cfg model.Config, cl hw.Cluster) (*ir.Graph, *cost.Model, Options) {
	tb.Helper()
	base, _, _ := strings.Cut(cl.Name, "+")
	cfg.BatchPerGPU = cfg.PaperBatchSize(base)
	built, err := model.Build(cfg, cl)
	if err != nil {
		tb.Fatal(err)
	}
	cm := cost.NewModel(cl)
	dw, err := dwsched.Run(built.Graph, cm, dwsched.Options{Strategy: dwsched.BestFit})
	if err != nil {
		tb.Fatal(err)
	}
	fwd := 0.0
	for _, in := range built.Graph.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwd += cm.PredictInstr(in)
	}
	return dw.Graph, cm, Options{
		GroupUs:          fwd / float64(5*cfg.NumMoELayers()),
		MaxRangeGroups:   7,
		MaxPartitions:    8,
		GatePartialBatch: cfg.Gate.SupportsPartialBatch(),
	}
}

// gpt2LFixture is sessionFixture for GPT2-L-MoE on 32×A100, the largest
// DP of the plan-cold mix.
func gpt2LFixture(tb testing.TB) (*ir.Graph, *cost.Model, Options) {
	tb.Helper()
	return sessionFixture(tb, model.GPT2LMoE(), hw.A100Cluster(4))
}

// BenchmarkPartitionPassGPT2L measures Run — the DP, axis inference and
// rewrite — on GPT2-L-MoE's dW-scheduled graph on 32×A100, planned with
// the options a Lancet session uses. Its 24 layers repeat one
// dense-and-MoE pair, so the DP prices most windows once and reuses the
// prices for the repeats (ratcheted by perf_floor.txt).
func BenchmarkPartitionPassGPT2L(b *testing.B) {
	g, cm, opts := gpt2LFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, cm, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionPassRecycled measures the partition pass the way a
// served plan miss runs it: Run on GPT2-L-MoE's dW-scheduled graph on
// 32×A100, then Release, so every iteration after the first carves its
// rewrite from the storage the one before released. Its allocs/op and
// B/op floors in perf_floor.txt fail a return to per-plan slabs.
func BenchmarkPartitionPassRecycled(b *testing.B) {
	g, cm, opts := gpt2LFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(g, cm, opts)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkRewrite measures the graph rewrite alone: Apply of the DP's
// ranges for GPT2-L-MoE on 32×A100 to its dW-scheduled graph, planned with
// the options a Lancet session uses. The rewritten graph shares the input's
// tensors and unchanged operand slices, so its allocations are the new
// pieces, the micro-instances and the plumbing ops (ratcheted by
// perf_floor.txt).
func BenchmarkRewrite(b *testing.B) {
	g, cm, opts := gpt2LFixture(b)
	res, err := Run(g, cm, opts)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Ranges) == 0 {
		b.Fatal("the DP chose no pipelines")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(g, res.Ranges, opts.GatePartialBatch); err != nil {
			b.Fatal(err)
		}
	}
}
