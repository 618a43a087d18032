// Gating: how the routing algorithm constrains Lancet's partition range
// (paper Sec. 2.3 / Figs. 4c-4d) and what that costs. Partial-batch-safe
// gates let pipelines extend both before and after the MoE layer; Batch
// Prioritized Routing only after it. The example also verifies the
// mathematical-equivalence claim per gate.
package main

import (
	"fmt"
	"log"

	"lancet"
)

func main() {
	gates := []struct {
		kind lancet.GateKind
		name string
	}{
		{lancet.GateSwitch, "Switch (top-1)"},
		{lancet.GateTop2, "Top-2"},
		{lancet.GateBatchPriority, "Batch Prioritized"},
		{lancet.GateRandom, "Random"},
		{lancet.GateHash, "Hash"},
	}

	fmt.Println("== Routing equivalence under 4-way micro-batched gating ==")
	for _, g := range gates {
		res, err := lancet.VerifyGateEquivalence(g.kind, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s partial-batch safe: %-5v dropped %d -> %d, outputs identical: %v\n",
			g.name, res.PartialBatchSafe, res.DroppedWhole, res.DroppedMicro, res.OutputsIdentical)
	}

	fmt.Println("\n== Lancet speedup over RAF by gate (32 V100 GPUs) ==")
	for _, g := range gates {
		cfg := lancet.GPT2SMoE(0)
		cfg.Gate = g.kind
		sess, err := lancet.NewSession(cfg, lancet.MustCluster("V100", 32))
		if err != nil {
			log.Fatal(err)
		}
		base, err := sess.Baseline(lancet.FrameworkRAF)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := sess.Lancet(lancet.Options{})
		if err != nil {
			log.Fatal(err)
		}
		b, l := base.MustSimulate(2), plan.MustSimulate(2)
		fmt.Printf("%-18s %6.1f ms -> %6.1f ms  (%.2fx, %d pipelines)\n",
			g.name, b.IterationMs, l.IterationMs, b.IterationMs/l.IterationMs, len(plan.Pipelines))
	}
}
