// Command lancet optimizes one MoE training configuration and compares the
// simulated iteration time against the baseline frameworks.
//
// Usage:
//
//	lancet -model gpt2-s -cluster V100 -gpus 16 -gate switch
//	lancet -parallel 4 -json      # plan frameworks concurrently, JSON output
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"lancet"
	"lancet/internal/pool"
	"lancet/internal/prof"
	"lancet/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lancet: ")
	var (
		modelName = flag.String("model", "gpt2-s", "model: gpt2-s, gpt2-l or vit-s")
		clusterT  = flag.String("cluster", "V100", "cluster GPU type: V100 (p3dn) or A100 (p4de)")
		gpus      = flag.Int("gpus", 16, "total GPUs (multiple of 8 for multi-node)")
		batch     = flag.Int("batch", 0, "per-GPU batch size (0 = paper default)")
		classesF  = flag.String("classes", "", "mixed-generation fleet, e.g. 1xA100+1xV100 (nodes per class; replaces -cluster/-gpus; first class is the hetero-blind assumption)")
		gateName  = flag.String("gate", "switch", "gate: switch, top2, bpr, random, hash, expert_choice")
		seed      = flag.Int64("seed", 1, "simulation seed")
		rho       = flag.Int("rho", 0, "max partitions (0 = default 8)")
		shared    = flag.Bool("shared", false, "add a shared expert to every MoE layer")
		zero3     = flag.Bool("zero3", false, "shard replicated parameters FSDP-style")
		prio      = flag.Bool("prio", false, "run the all-to-all prioritization pass")
		skew      = flag.Float64("skew", 0, "Zipf skew of expert popularity (0 = balanced); planning and simulation both price the skewed traffic")
		hot       = flag.Float64("hot", 0, "fraction of tokens biased toward one hot expert (0 = balanced, exclusive with -skew)")
		oversub   = flag.Float64("oversub", 0, "spine oversubscription factor (0/1 = flat non-blocking fabric); planning and simulation both price the hierarchy")
		racksize  = flag.Int("racksize", 0, "nodes per rack switch (0 with -oversub > 1 = every node its own rack)")
		shareF    = flag.Float64("spine-share", 0, "fraction of spine bandwidth this job keeps under multi-job contention (0/1 = sole tenant)")
		lostF     = flag.String("lost-nodes", "", "comma-separated node indices for a node-loss what-if (Lancet framework only), e.g. 0,2")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "framework planning/simulation worker-pool size")
		jsonOut   = flag.Bool("json", false, "emit the comparison as JSON instead of a table")
	)
	flag.Parse()
	defer prof.Start()()

	cfg, err := lancet.ParseModel(*modelName, *batch)
	if err != nil {
		log.Fatal(err)
	}
	// Validate the gate name unconditionally — a typo'd -gate must error
	// even on paths that end up keeping the model's default. Only override
	// the model's default gate when -gate was explicitly given (the vision
	// model defaults to Batch Prioritized Routing).
	gate, err := lancet.ParseGate(*gateName)
	if err != nil {
		log.Fatal(err)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gate" {
			cfg.Gate = gate
		}
	})
	cfg.SharedExpert = *shared
	cfg.ZeRO3 = *zero3
	var cluster lancet.Cluster
	if *classesF != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "cluster" || f.Name == "gpus" {
				log.Fatalf("-classes replaces -%s; specify the fleet one way", f.Name)
			}
		})
		classes, err := lancet.ParseClasses(*classesF)
		if err != nil {
			log.Fatal(err)
		}
		if cluster, err = lancet.NewHeteroCluster(classes...); err != nil {
			log.Fatal(err)
		}
	} else if cluster, err = lancet.NewCluster(*clusterT, *gpus); err != nil {
		log.Fatal(err)
	}
	if *oversub != 0 || *racksize != 0 || *shareF != 0 {
		// DefaultRacks: -oversub or -spine-share alone applies to all
		// inter-node traffic.
		topo := lancet.Topology{NodesPerRack: *racksize, Oversubscription: *oversub, SpineShare: *shareF}.DefaultRacks()
		if cluster, err = cluster.WithTopology(topo); err != nil {
			log.Fatal(err)
		}
	}
	if *skew < 0 || *hot < 0 || *hot >= 1 {
		log.Fatalf("invalid workload: -skew %g (want >= 0), -hot %g (want [0, 1))", *skew, *hot)
	}
	if *skew > 0 && *hot > 0 {
		log.Fatal("-skew and -hot are exclusive; pick one routing shape")
	}
	sess, err := lancet.NewSession(cfg, cluster)
	if err != nil {
		log.Fatal(err)
	}
	sess.WorkloadSkew = *skew
	sess.WorkloadHotExpert = *hot
	lost, err := parseLostNodes(*lostF)
	if err != nil {
		log.Fatal(err)
	}
	opts := lancet.Options{MaxPartitions: *rho, PrioritizeAllToAll: *prio}

	frameworks := []string{lancet.FrameworkDeepSpeed, lancet.FrameworkRAF, lancet.FrameworkTutel, lancet.FrameworkLancet}
	results := make([]fwResult, len(frameworks))

	// Plans of one session are independent; fan them out over a bounded
	// pool and keep the output in framework order.
	workers := *parallel
	if workers <= 0 {
		workers = 1
	}
	pool.ForEachIndexed(context.Background(), len(frameworks), workers, func(i int) {
		results[i] = runFramework(sess, frameworks[i], *seed, opts, lost)
	})

	for _, r := range results {
		if r.Err != "" {
			log.Fatal(r.Err)
		}
	}

	var lancetMs, bestBaseMs float64
	for _, r := range results {
		if r.OOM {
			continue
		}
		if r.Framework == lancet.FrameworkLancet {
			lancetMs = r.IterationMs
		} else if bestBaseMs == 0 || r.IterationMs < bestBaseMs {
			bestBaseMs = r.IterationMs
		}
	}
	speedup := 0.0
	if lancetMs > 0 && bestBaseMs > 0 {
		speedup = bestBaseMs / lancetMs
	}

	if *jsonOut {
		doc, err := json.MarshalIndent(struct {
			Model      string     `json:"model"`
			Cluster    string     `json:"cluster"`
			GPUs       int        `json:"gpus"`
			Gate       string     `json:"gate"`
			Frameworks []fwResult `json:"frameworks"`
			Speedup    float64    `json:"speedup_over_best_baseline,omitempty"`
		}{sess.Config.Name, cluster.String(), cluster.TotalGPUs(), sess.Config.Gate.String(), results, speedup}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", doc)
		return
	}

	fmt.Printf("%s on %s, %d experts, capacity %d, a2a payload %.1f MB, gate %s\n\n",
		sess.Config.Name, cluster, sess.Built.TotalExperts, sess.Built.CapacityC,
		float64(sess.Built.A2ABytes)/1e6, sess.Config.Gate)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "framework\titer (ms)\tnon-ovl comm (ms)\toverlap (ms)\ta2a (ms)\tspeedup\tnotes")
	for _, r := range results {
		if r.OOM {
			fmt.Fprintf(w, "%s\tOOM\t-\t-\t-\t-\t\n", r.Name)
			continue
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t\t%s\n",
			r.Name, r.IterationMs, r.NonOverlappedCommMs, r.OverlapMs, r.AllToAllMs, r.Notes)
	}
	w.Flush()
	if speedup > 0 {
		fmt.Printf("\nLancet speedup over best baseline: %.2fx\n", speedup)
	}
	for _, r := range results {
		if wi := r.WhatIf; wi != nil {
			fmt.Printf("\nwhat-if: lose nodes %v (%d of %d GPUs): degraded replay %.1f ms (%.2fx slower than intact), "+
				"warm re-plan %.1f ms (%.2fx back), DP evals %d warm vs %d cold\n",
				wi.LostNodes, wi.LostGPUs, wi.LostGPUs+wi.SurvivorGPUs,
				wi.DegradedMs, wi.DegradedSlowdown, wi.ReplannedMs, wi.ReplanSpeedup,
				wi.ReplanDPEvaluations, wi.ColdDPEvaluations)
		}
	}
}

// parseLostNodes parses the -lost-nodes flag: a comma-separated list of
// non-negative node indices.
func parseLostNodes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	lost := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-lost-nodes: %q is not a non-negative node index", p)
		}
		lost = append(lost, n)
	}
	return lost, nil
}

// fwResult is one framework's planned-and-simulated outcome. The numbers
// come from the same service.Compute the serving layer uses, so CLI output
// and lancet-serve responses are identical for the same configuration.
type fwResult struct {
	service.Result
	Err string `json:"error,omitempty"`
}

func runFramework(sess *lancet.Session, fw string, seed int64, opts lancet.Options, lost []int) fwResult {
	res, err := service.Compute(sess, fw, seed, opts, lost...)
	if err != nil {
		return fwResult{Result: service.Result{Framework: fw}, Err: err.Error()}
	}
	return fwResult{Result: res}
}
