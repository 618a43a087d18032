package service

import (
	"encoding/json"
	"strings"
	"testing"

	"lancet"
)

// TestPlanKeyGolden pins the plan-key text of the request shapes the
// blind-planner ablations and the node-loss what-if use. planKey formats
// PlanOptions with %+v, so the Go field names are part of every key and,
// through SHA-256(key), of every disk artifact's file name: renaming or
// reordering a PlanOptions field orphans every stored plan. Baseline
// entries drop the options and the what-if fragment, so they stay shared.
func TestPlanKeyGolden(t *testing.T) {
	const (
		zeroOpts = "{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false PrioritizeAllToAll:false AssumeUniformRouting:false AssumeFlatTopology:false AssumeUniformHardware:false AssumeSoleTenancy:false}"
		v100x16  = "GPT2-S-MoE|V100|16|b16|switch|sharedfalse|zero3false"
	)
	cases := []struct {
		name, body, lancet, tutel string
	}{
		{"default", `{}`,
			v100x16 + "|rt=uniform|topo=flat|lancet|seed1|" + zeroOpts,
			v100x16 + "|rt=uniform|topo=flat|tutel|seed1|" + zeroOpts},
		{"assume_uniform_routing", `{"options": {"assume_uniform_routing": true}, "routing": {"kind": "zipf", "alpha": 1.2}}`,
			v100x16 + "|rt=zipf(1.2)|topo=flat|lancet|seed1|{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false PrioritizeAllToAll:false AssumeUniformRouting:true AssumeFlatTopology:false AssumeUniformHardware:false AssumeSoleTenancy:false}",
			v100x16 + "|rt=zipf(1.2)|topo=flat|tutel|seed1|" + zeroOpts},
		{"assume_flat_topology", `{"options": {"assume_flat_topology": true}, "topology": {"oversub": 4}}`,
			v100x16 + "|rt=uniform|topo=r1xo4|lancet|seed1|{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false PrioritizeAllToAll:false AssumeUniformRouting:false AssumeFlatTopology:true AssumeUniformHardware:false AssumeSoleTenancy:false}",
			v100x16 + "|rt=uniform|topo=r1xo4|tutel|seed1|" + zeroOpts},
		{"assume_uniform_hardware", `{"options": {"assume_uniform_hardware": true}, "classes": [{"gpu": "A100", "nodes": 1}, {"gpu": "V100", "nodes": 1}]}`,
			"GPT2-S-MoE|A100|16|b24|switch|sharedfalse|zero3false|rt=uniform|topo=flat|hw=1xA100+1xV100|lancet|seed1|{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false PrioritizeAllToAll:false AssumeUniformRouting:false AssumeFlatTopology:false AssumeUniformHardware:true AssumeSoleTenancy:false}",
			"GPT2-S-MoE|A100|16|b24|switch|sharedfalse|zero3false|rt=uniform|topo=flat|hw=1xA100+1xV100|tutel|seed1|" + zeroOpts},
		{"assume_sole_tenancy", `{"options": {"assume_sole_tenancy": true}, "topology": {"spine_share": 0.5}}`,
			v100x16 + "|rt=uniform|topo=r1xo1xs0.5|lancet|seed1|{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false PrioritizeAllToAll:false AssumeUniformRouting:false AssumeFlatTopology:false AssumeUniformHardware:false AssumeSoleTenancy:true}",
			v100x16 + "|rt=uniform|topo=r1xo1xs0.5|tutel|seed1|" + zeroOpts},
		{"flat and sole", `{"options": {"assume_flat_topology": true, "assume_sole_tenancy": true}, "topology": {"nodes_per_rack": 1, "oversub": 4, "spine_share": 0.5}}`,
			v100x16 + "|rt=uniform|topo=r1xo4xs0.5|lancet|seed1|{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false PrioritizeAllToAll:false AssumeUniformRouting:false AssumeFlatTopology:true AssumeUniformHardware:false AssumeSoleTenancy:true}",
			v100x16 + "|rt=uniform|topo=r1xo4xs0.5|tutel|seed1|" + zeroOpts},
		{"what_if", `{"gpus": 32, "what_if": {"lost_nodes": [2, 0, 2]}}`,
			"GPT2-S-MoE|V100|32|b16|switch|sharedfalse|zero3false|rt=uniform|topo=flat|lancet|seed1|" + zeroOpts + "|loss=[0 2]",
			"GPT2-S-MoE|V100|32|b16|switch|sharedfalse|zero3false|rt=uniform|topo=flat|tutel|seed1|" + zeroOpts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req PlanRequest
			dec := json.NewDecoder(strings.NewReader(tc.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatal(err)
			}
			c, err := req.canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			if got := c.planKey(lancet.FrameworkLancet); got != tc.lancet {
				t.Errorf("lancet plan key\n got %s\nwant %s", got, tc.lancet)
			}
			if got := c.planKey(lancet.FrameworkTutel); got != tc.tutel {
				t.Errorf("tutel plan key\n got %s\nwant %s", got, tc.tutel)
			}
		})
	}
}
