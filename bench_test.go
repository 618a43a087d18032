package lancet_test

// One benchmark per table/figure of the paper's evaluation (Sec. 7). Each
// regenerates the corresponding experiment on a reduced (16-GPU) grid; the
// full grids are produced by `go run ./cmd/lancet-bench`. Additional
// micro-benchmarks cover the optimization passes themselves and the
// ablations called out in DESIGN.md §8.

import (
	"testing"

	"lancet"
	"lancet/internal/experiments"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig02Breakdown regenerates Fig. 2 (Orig/Curr/Opt breakdown).
func BenchmarkFig02Breakdown(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig06PartitionRange regenerates Fig. 6 (partition-range sweep
// with the DP solution).
func BenchmarkFig06PartitionRange(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig11Throughput regenerates Fig. 11 (Switch-gate throughput
// grid).
func BenchmarkFig11Throughput(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12ThroughputBPR regenerates Fig. 12 (Batch-Prioritized-gate
// throughput grid).
func BenchmarkFig12ThroughputBPR(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13Decomposition regenerates Fig. 13 (iteration
// decomposition).
func BenchmarkFig13Decomposition(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14CostModel regenerates Fig. 14 (cost-model accuracy).
func BenchmarkFig14CostModel(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15OptimizationTime regenerates Fig. 15 (optimization time).
func BenchmarkFig15OptimizationTime(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16Ablation regenerates Fig. 16 (per-pass ablation).
func BenchmarkFig16Ablation(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkEquivalenceCheck regenerates the Sec. 2.3 routing-equivalence
// table.
func BenchmarkEquivalenceCheck(b *testing.B) { benchExperiment(b, "equiv") }

// BenchmarkIrregularA2ASavings regenerates the padded-vs-irregular payload
// table backing Sec. 7.1's communication-time observation.
func BenchmarkIrregularA2ASavings(b *testing.B) { benchExperiment(b, "a2a-padding") }

// ---------------------------------------------------------------------------
// End-to-end pipeline micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkLancetOptimize measures both optimization passes end to end on
// GPT2-S-MoE/16xV100 (the quantity plotted in Fig. 15).
func BenchmarkLancetOptimize(b *testing.B) {
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Lancet(lancet.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCold measures a full cold plan — session construction,
// skewed routing profile and both optimization passes, but no simulation
// (a plan derives its irregular overrides on its first simulation) — with
// nothing warmed between iterations except the process-wide state a pooled
// server also shares: the scratch arenas and the routing-proxy memo. This
// is the planning cost of one /v1/plan request on a fresh session, the
// quantity the arena refactor targets (DESIGN.md §13); perf_floor.txt
// ratchets it.
func BenchmarkPlanCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
		if err != nil {
			b.Fatal(err)
		}
		sess.WorkloadSkew = 1.2
		if _, err := sess.Lancet(lancet.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTutelBaseline measures Session.Baseline("tutel") on a warm
// session, whose degree search has already run: the call returns the
// graph the search chose, with no rewrite. perf_floor.txt ratchets it.
func BenchmarkTutelBaseline(b *testing.B) {
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Baseline(lancet.FrameworkTutel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Baseline(lancet.FrameworkTutel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTutelSearch measures the first Session.Baseline("tutel") call
// on a session built outside the timer: the degree search's three
// rewrites (degrees 2, 4 and 8) and a predicted iteration of every
// candidate, priced on a cost model derived from the session's.
// perf_floor.txt ratchets it.
func BenchmarkTutelSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sess.Baseline(lancet.FrameworkTutel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateIteration measures one simulated training iteration of
// the optimized plan. perf_floor.txt ratchets it.
func BenchmarkSimulateIteration(b *testing.B) {
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sess.Lancet(lancet.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Simulate(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionBuild measures graph construction (IR emission for the
// full training iteration).
func BenchmarkSessionBuild(b *testing.B) {
	cluster := lancet.MustCluster("V100", 16)
	for i := 0; i < b.N; i++ {
		if _, err := lancet.NewSession(lancet.GPT2LMoE(0), cluster); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Extension experiments (paper Sec. 8 discussion items).
// ---------------------------------------------------------------------------

// BenchmarkSharedExpertOverlap regenerates the shared-expert overlap table.
func BenchmarkSharedExpertOverlap(b *testing.B) { benchExperiment(b, "shared-expert") }

// BenchmarkCommPriority regenerates the all-to-all prioritization table.
func BenchmarkCommPriority(b *testing.B) { benchExperiment(b, "comm-priority") }

// BenchmarkLoadSkew regenerates the skewed-routing table.
func BenchmarkLoadSkew(b *testing.B) { benchExperiment(b, "skew") }

// BenchmarkImbalance regenerates the end-to-end hot-expert table.
func BenchmarkImbalance(b *testing.B) { benchExperiment(b, "imbalance") }

// BenchmarkFSDPInterference regenerates the ZeRO-3 interference table.
func BenchmarkFSDPInterference(b *testing.B) { benchExperiment(b, "fsdp") }

// BenchmarkShadowingComparison regenerates the FasterMoE-vs-Lancet skew
// table.
func BenchmarkShadowingComparison(b *testing.B) { benchExperiment(b, "fastermoe") }
