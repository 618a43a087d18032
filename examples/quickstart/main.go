// Quickstart: optimize GPT2-S-MoE on a 16-GPU V100 cluster with Lancet and
// compare one simulated training iteration against DeepSpeed, RAF and
// Tutel — the experiment behind the paper's headline 1.3x claim.
package main

import (
	"fmt"
	"log"

	"lancet"
)

func main() {
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s | cluster: %s | experts: %d (capacity %d)\n\n",
		sess.Config.Name, sess.Cluster, sess.Built.TotalExperts, sess.Built.CapacityC)

	var best float64
	for _, fw := range []string{lancet.FrameworkDeepSpeed, lancet.FrameworkRAF, lancet.FrameworkTutel} {
		plan, err := sess.Baseline(fw)
		if err != nil {
			log.Fatal(err)
		}
		r := plan.MustSimulate(1)
		fmt.Printf("%-10s iteration %6.1f ms (non-overlapped comm %6.1f ms)\n",
			plan.Name, r.IterationMs, r.NonOverlappedCommMs)
		if best == 0 || r.IterationMs < best {
			best = r.IterationMs
		}
	}

	plan, err := sess.Lancet(lancet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	r := plan.MustSimulate(1)
	fmt.Printf("%-10s iteration %6.1f ms (non-overlapped comm %6.1f ms)\n",
		plan.Name, r.IterationMs, r.NonOverlappedCommMs)
	fmt.Printf("\nLancet: %d pipelines, %.1f ms of all-to-all hidden behind dW computation\n",
		len(plan.Pipelines), plan.DWOverlapUs/1000)
	fmt.Printf("speedup over best baseline: %.2fx\n", best/r.IterationMs)
}
