package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lancet"
	"lancet/internal/netsim"
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

// planKeyRef is the plan key as one fmt.Sprintf formats it, the spelling
// planKey replaced with strconv appends. planKey must equal it byte for
// byte: a key that changed would orphan every disk artifact stored under
// the old one.
func planKeyRef(c *canonical, framework string) string {
	opts, loss := c.opts, ""
	if framework != lancet.FrameworkLancet {
		opts = PlanOptions{}
	} else if len(c.lostNodes) > 0 {
		loss = fmt.Sprintf("|loss=%v", c.lostNodes)
	}
	return fmt.Sprintf("%s|%s|%d|b%d|%s|shared%t|zero3%t|rt=%s|topo=%s%s|%s|seed%d|%+v%s",
		c.cfg.Name, c.clusterType, c.gpus, c.cfg.BatchPerGPU, c.cfg.Gate,
		c.cfg.SharedExpert, c.cfg.ZeRO3, routingKeyRef(c), c.topo.key(), hwKeyRef(c),
		framework, c.seed, opts, loss)
}

// sessionKeyRef is sessionKey's fmt spelling.
func sessionKeyRef(c *canonical) string {
	return fmt.Sprintf("%s|%s|%d|b%d|%s|shared%t|zero3%t|topo=%s%s",
		c.cfg.Name, c.clusterType, c.gpus, c.cfg.BatchPerGPU, c.cfg.Gate,
		c.cfg.SharedExpert, c.cfg.ZeRO3, c.topo.key(), hwKeyRef(c))
}

func routingKeyRef(c *canonical) string {
	if c.profile != nil {
		return fmt.Sprintf("stream(%016x)", c.profile.Fingerprint())
	}
	return c.routing.key()
}

func hwKeyRef(c *canonical) string {
	if len(c.classes) == 0 {
		return ""
	}
	parts := make([]string, len(c.classes))
	for i, cs := range c.classes {
		parts[i] = fmt.Sprintf("%dx%s", cs.Nodes, cs.GPU)
	}
	return "|hw=" + strings.Join(parts, "+")
}

func (t TopologySpec) key() string {
	if t == (TopologySpec{}) {
		return "flat"
	}
	key := fmt.Sprintf("r%dxo%g", t.NodesPerRack, t.Oversub)
	if t.SpineShare != 0 && t.SpineShare < 1 {
		key += fmt.Sprintf("xs%g", t.SpineShare)
	}
	return key
}

func (r RoutingSpec) key() string {
	switch r.Kind {
	case RoutingZipf:
		return fmt.Sprintf("zipf(%g)", r.Alpha)
	case RoutingHot:
		return fmt.Sprintf("hot(%g)", r.HotShare)
	}
	return RoutingUniform
}

// checkKeysMatchRef fails unless c's session key and its lancet and tutel
// plan keys equal their fmt spellings.
func checkKeysMatchRef(t *testing.T, c *canonical) {
	t.Helper()
	if got, want := c.sessionKey(), sessionKeyRef(c); got != want {
		t.Fatalf("session key\n got %s\nwant %s", got, want)
	}
	for _, fw := range []string{lancet.FrameworkLancet, lancet.FrameworkTutel} {
		if got, want := c.planKey(fw), planKeyRef(c, fw); got != want {
			t.Fatalf("%s plan key\n got %s\nwant %s", fw, got, want)
		}
	}
}

// TestStreamPlanKeysMatchFmt covers the drift loop's rt=stream(...)
// fragment, which no request body can spell: a streamed profile's 64-bit
// fingerprint in 16 zero-padded hex digits.
func TestStreamPlanKeysMatchFmt(t *testing.T) {
	c, err := PlanRequest{GPUs: 32, Options: PlanOptions{GroupUs: 2.5e-7}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*netsim.RoutingProfile{
		netsim.UniformProfile(32),
		netsim.ZipfProfile(32, 1.2),
		netsim.ZipfProfile(32, 0.01),
	} {
		checkKeysMatchRef(t, c.withProfile(p))
	}
}
