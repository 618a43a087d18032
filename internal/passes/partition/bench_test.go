package partition

import (
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/passes/dwsched"
)

func benchFixture(b *testing.B) (*model.Built, *cost.Model) {
	b.Helper()
	cfg := model.GPT2SMoE()
	cfg.BatchPerGPU = 16
	cl := hw.V100Cluster(2)
	built, err := model.Build(cfg, cl)
	if err != nil {
		b.Fatal(err)
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

// BenchmarkPipelineCost isolates one P(i,n,k) evaluation (the DP's inner
// loop, counted in Fig. 15).
func BenchmarkPipelineCost(b *testing.B) {
	built, cm := benchFixture(b)
	h := built.MoE[0]
	window := built.Graph.Instrs[h.Gate : h.Gather+1]
	asg := InferAxes(built.Graph, window, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipelineCost(built.Graph, cm, h.Gate, h.Gather, asg, 4, nil, 1)
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

// BenchmarkRewrite measures the graph rewrite alone: Apply of the DP's
// ranges for GPT2-L-MoE on 32×A100 to its dW-scheduled graph, planned with
// the options a Lancet session uses. The rewritten graph shares the input's
// tensors and unchanged operand slices, so its allocations are the new
// pieces, the micro-instances and the plumbing ops (ratcheted by
// perf_floor.txt).
func BenchmarkRewrite(b *testing.B) {
	cfg := model.GPT2LMoE()
	cfg.BatchPerGPU = cfg.PaperBatchSize("A100")
	cl := hw.A100Cluster(4)
	built, err := model.Build(cfg, cl)
	if err != nil {
		b.Fatal(err)
	}
	cm := cost.NewModel(cl)
	dw, err := dwsched.Run(built.Graph, cm, dwsched.Options{Strategy: dwsched.BestFit})
	if err != nil {
		b.Fatal(err)
	}
	fwd := 0.0
	for _, in := range built.Graph.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwd += cm.PredictInstr(in)
	}
	res, err := Run(dw.Graph, cm, Options{
		GroupUs:          fwd / float64(5*cfg.NumMoELayers()),
		MaxRangeGroups:   7,
		GatePartialBatch: cfg.Gate.SupportsPartialBatch(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Ranges) == 0 {
		b.Fatal("the DP chose no pipelines")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(dw.Graph, res.Ranges); err != nil {
			b.Fatal(err)
		}
	}
}
