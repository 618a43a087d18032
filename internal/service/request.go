package service

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"lancet"
	"lancet/internal/netsim"
)

// PlanOptions is the wire form of lancet.Options: the optimization knobs
// under JSON names, plus the assume_* ablation flags, which toLancet
// composes into the planner view (DESIGN.md §8). planKey spells it as %+v
// prints it (appendKey), so its Go field names are part of every plan key
// and of every disk artifact's name: renaming or reordering a field
// orphans stored plans.
type PlanOptions struct {
	MaxPartitions      int     `json:"max_partitions,omitempty"`
	GroupUs            float64 `json:"group_us,omitempty"`
	MaxRangeGroups     int     `json:"max_range_groups,omitempty"`
	DisableDWSchedule  bool    `json:"disable_dw_schedule,omitempty"`
	DisablePartition   bool    `json:"disable_partition,omitempty"`
	DWFirstFit         bool    `json:"dw_first_fit,omitempty"`
	PrioritizeAllToAll bool    `json:"prioritize_all_to_all,omitempty"`
	// The assume_* flags plan against the blind views of DESIGN.md §8 while
	// simulation replays reality: View.UniformRouting (skew-blind, §10),
	// View.Flat (topology-blind, §11), View.UniformHardware (hetero-blind,
	// §12) and View.SoleTenant (contention-blind, §17).
	AssumeUniformRouting  bool `json:"assume_uniform_routing,omitempty"`
	AssumeFlatTopology    bool `json:"assume_flat_topology,omitempty"`
	AssumeUniformHardware bool `json:"assume_uniform_hardware,omitempty"`
	AssumeSoleTenancy     bool `json:"assume_sole_tenancy,omitempty"`
}

// toLancet maps the wire options onto lancet.Options, composing the set
// assume_* flags into Options.View.
func (o PlanOptions) toLancet() lancet.Options {
	opts := lancet.Options{
		MaxPartitions:      o.MaxPartitions,
		GroupUs:            o.GroupUs,
		MaxRangeGroups:     o.MaxRangeGroups,
		DisableDWSchedule:  o.DisableDWSchedule,
		DisablePartition:   o.DisablePartition,
		DWFirstFit:         o.DWFirstFit,
		PrioritizeAllToAll: o.PrioritizeAllToAll,
	}
	if o.AssumeUniformRouting || o.AssumeFlatTopology || o.AssumeUniformHardware || o.AssumeSoleTenancy {
		opts.View = func(v lancet.View) lancet.View {
			if o.AssumeFlatTopology {
				v = v.Flat()
			}
			if o.AssumeUniformHardware {
				v = v.UniformHardware()
			}
			if o.AssumeSoleTenancy {
				v = v.SoleTenant()
			}
			if o.AssumeUniformRouting {
				v = v.UniformRouting()
			}
			return v
		}
	}
	return opts
}

// appendKey appends the options as %+v prints them, "{MaxPartitions:0
// GroupUs:0 ...}", field by field in declaration order. A new field must
// be appended here too: FuzzPlanRequest checks planKey against the %+v
// spelling.
func (o PlanOptions) appendKey(b []byte) []byte {
	b = strconv.AppendInt(append(b, "{MaxPartitions:"...), int64(o.MaxPartitions), 10)
	b = appendFloat(append(b, " GroupUs:"...), o.GroupUs)
	b = strconv.AppendInt(append(b, " MaxRangeGroups:"...), int64(o.MaxRangeGroups), 10)
	b = strconv.AppendBool(append(b, " DisableDWSchedule:"...), o.DisableDWSchedule)
	b = strconv.AppendBool(append(b, " DisablePartition:"...), o.DisablePartition)
	b = strconv.AppendBool(append(b, " DWFirstFit:"...), o.DWFirstFit)
	b = strconv.AppendBool(append(b, " PrioritizeAllToAll:"...), o.PrioritizeAllToAll)
	b = strconv.AppendBool(append(b, " AssumeUniformRouting:"...), o.AssumeUniformRouting)
	b = strconv.AppendBool(append(b, " AssumeFlatTopology:"...), o.AssumeFlatTopology)
	b = strconv.AppendBool(append(b, " AssumeUniformHardware:"...), o.AssumeUniformHardware)
	b = strconv.AppendBool(append(b, " AssumeSoleTenancy:"...), o.AssumeSoleTenancy)
	return append(b, '}')
}

// TopologySpec selects the cluster's network hierarchy for /v1/plan and
// /v1/sweep (DESIGN.md §11): nodes per rack switch, the spine's
// oversubscription factor, and the job's tenant share of the (possibly
// contended) spine (DESIGN.md §17). Omitting it (or any spelling that
// leaves no pair of GPUs behind a constrained spine) selects the flat
// fabric, and all flat spellings canonicalize to the same cache key. When
// Oversub > 1 or SpineShare < 1 and NodesPerRack is unset, every node
// becomes its own rack, so the factor applies to all inter-node traffic.
type TopologySpec struct {
	NodesPerRack int     `json:"nodes_per_rack,omitempty"`
	Oversub      float64 `json:"oversub,omitempty"`
	SpineShare   float64 `json:"spine_share,omitempty"`
}

// toTopology resolves the request-layer defaulting (DefaultRacks: an
// oversubscribed or contended spec without a rack size means per-node
// racks).
func (t TopologySpec) toTopology() lancet.Topology {
	return lancet.Topology{NodesPerRack: t.NodesPerRack, Oversubscription: t.Oversub, SpineShare: t.SpineShare}.DefaultRacks()
}

// appendKey appends the topology spec's canonical cache-key fragment:
// "flat", or r<nodes per rack>xo<oversub> with xs<share> when the tenant
// share binds. Sole-tenant specs keep the pre-contention key form, so
// existing cached entries stay valid.
func (t TopologySpec) appendKey(b []byte) []byte {
	if t == (TopologySpec{}) {
		return append(b, "flat"...)
	}
	b = strconv.AppendInt(append(b, 'r'), int64(t.NodesPerRack), 10)
	b = appendFloat(append(b, "xo"...), t.Oversub)
	if t.SpineShare != 0 && t.SpineShare < 1 {
		b = appendFloat(append(b, "xs"...), t.SpineShare)
	}
	return b
}

// appendFloat appends f as fmt's %g and %v print it, so keys built without
// fmt keep their bytes.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendJSONFloat appends a finite f as encoding/json encodes a float64:
// the shortest 'f' form, or 'e' below 1e-6 and from 1e21 on, with a
// negative exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as encoding/json quotes it. Canonical
// vocabularies never need an escape; a string that might is handed to
// json.Marshal, so the escaping rules stay the encoder's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// indented appends one JSON object or array laid out as
// json.MarshalIndent(v, "  ", "  ") lays out a value inside an indented
// response: each member on a line of its own, indented to depth, and "{}"
// or "[]" when there is none.
type indented struct {
	b           []byte
	depth       int // the members' indentation depth
	open, close byte
	n           int // members written
}

// jsonObject and jsonArray start a writer whose members sit at depth.
func jsonObject(b []byte, depth int) indented {
	return indented{b: b, depth: depth, open: '{', close: '}'}
}

func jsonArray(b []byte, depth int) indented {
	return indented{b: b, depth: depth, open: '[', close: ']'}
}

// appendLine starts a new line indented to depth: the response's two-space
// prefix plus two spaces per level.
func appendLine(b []byte, depth int) []byte {
	b = append(b, "\n  "...)
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// elem starts the next member's line.
func (w *indented) elem() {
	if w.n == 0 {
		w.b = append(w.b, w.open)
	} else {
		w.b = append(w.b, ',')
	}
	w.n++
	w.b = appendLine(w.b, w.depth)
}

// key starts an object member named k; its value is appended to w.b next.
func (w *indented) key(k string) {
	w.elem()
	w.b = append(append(append(w.b, '"'), k...), `": `...)
}

// end closes the object or array and returns the bytes.
func (w *indented) end() []byte {
	if w.n == 0 {
		return append(w.b, w.open, w.close)
	}
	return append(appendLine(w.b, w.depth-1), w.close)
}

// The omitempty members: each is left out when its value is the zero one.

func (w *indented) str(k, v string) {
	if v != "" {
		w.key(k)
		w.b = appendJSONString(w.b, v)
	}
}

func (w *indented) integer(k string, v int) {
	if v != 0 {
		w.key(k)
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
}

func (w *indented) float(k string, v float64) {
	if v != 0 {
		w.key(k)
		w.b = appendJSONFloat(w.b, v)
	}
}

func (w *indented) flag(k string, v bool) {
	if v {
		w.key(k)
		w.b = append(w.b, "true"...)
	}
}

// ClassSpec is one slice of a mixed-generation fleet for /v1/plan and
// /v1/sweep (DESIGN.md §12): `nodes` nodes of a known GPU type. A classes
// list replaces the cluster/gpus pair; adjacent same-type entries merge,
// and a list that collapses to a single class is the uniform cluster — it
// canonicalizes to the plain cluster/gpus spelling, so every uniform
// spelling shares the pre-heterogeneity cache keys.
type ClassSpec struct {
	GPU   string `json:"gpu"`
	Nodes int    `json:"nodes"`
}

// normalizeClasses validates a classes list against the cluster/gpus pair
// and resolves it to lancet node classes. An empty list means uniform.
func normalizeClasses(specs []ClassSpec, clusterType string, gpus int) ([]lancet.NodeClass, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if clusterType != "" || gpus != 0 {
		return nil, codedf(CodeConflictingFields, "specify either cluster/gpus or classes, not both")
	}
	classes := make([]lancet.NodeClass, 0, len(specs))
	for i, cs := range specs {
		if cs.Nodes <= 0 {
			return nil, codedf(CodeBadCluster, "classes[%d] needs nodes > 0, got %d", i, cs.Nodes)
		}
		if cs.Nodes > maxFleetGPUs {
			// Every node holds a GPU, and bounding each class keeps the
			// fleet's GPU total from overflowing before canonicalize
			// bounds it.
			return nil, codedf(CodeBadCluster, "classes[%d] names %d nodes, more than the %d-GPU fleet limit", i, cs.Nodes, maxFleetGPUs)
		}
		nc, err := lancet.ClassForGPU(strings.TrimSpace(cs.GPU), cs.Nodes)
		if err != nil {
			return nil, coded(CodeBadCluster, fmt.Errorf("classes[%d]: %w", i, err))
		}
		classes = append(classes, nc)
	}
	return classes, nil
}

// RoutingSpec selects the workload's routing shape for /v1/plan and
// /v1/sweep (DESIGN.md §10): "uniform" (the default balanced workload),
// "zipf" with exponent Alpha, or "hot" with the hot expert's token share.
// It canonicalizes into the plan key, so skewed and uniform requests never
// share a plan entry; they do share the pooled session of their model and
// cluster, each planning on its own workload view of it (DESIGN.md §9).
type RoutingSpec struct {
	Kind     string  `json:"kind"`
	Alpha    float64 `json:"alpha,omitempty"`
	HotShare float64 `json:"hot_share,omitempty"`
}

// Routing kinds accepted by RoutingSpec.
const (
	RoutingUniform = "uniform"
	RoutingZipf    = "zipf"
	RoutingHot     = "hot"
)

// normalizeRouting validates the routing field's kind-specific parameters.
// A nil spec means uniform.
func normalizeRouting(r *RoutingSpec) (RoutingSpec, error) {
	if r == nil {
		return RoutingSpec{Kind: RoutingUniform}, nil
	}
	spec := RoutingSpec{Kind: strings.ToLower(strings.TrimSpace(r.Kind)), Alpha: r.Alpha, HotShare: r.HotShare}
	switch spec.Kind {
	case "", RoutingUniform:
		spec.Kind = RoutingUniform
		if spec.Alpha != 0 || spec.HotShare != 0 {
			return RoutingSpec{}, codedf(CodeBadRouting, "uniform routing takes no alpha or hot_share")
		}
	case RoutingZipf:
		if spec.Alpha <= 0 {
			return RoutingSpec{}, codedf(CodeBadRouting, "zipf routing needs alpha > 0, got %g", spec.Alpha)
		}
		if spec.HotShare != 0 {
			return RoutingSpec{}, codedf(CodeBadRouting, "zipf routing takes no hot_share")
		}
	case RoutingHot:
		if spec.HotShare <= 0 || spec.HotShare >= 1 {
			return RoutingSpec{}, codedf(CodeBadRouting, "hot routing needs 0 < hot_share < 1, got %g", spec.HotShare)
		}
		if spec.Alpha != 0 {
			return RoutingSpec{}, codedf(CodeBadRouting, "hot routing takes no alpha")
		}
	default:
		return RoutingSpec{}, codedf(CodeBadRouting, "unknown routing kind %q (want %s, %s or %s)",
			r.Kind, RoutingUniform, RoutingZipf, RoutingHot)
	}
	return spec, nil
}

// workload maps the spec onto the session's parametric workload knobs
// (lancet.Session.WithWorkload).
func (r RoutingSpec) workload() (skew, hotExpert float64) {
	switch r.Kind {
	case RoutingZipf:
		return r.Alpha, 0
	case RoutingHot:
		return 0, r.HotShare
	}
	return 0, 0
}

// appendKey appends the routing spec's canonical cache-key fragment:
// "uniform", zipf(<alpha>) or hot(<hot share>).
func (r RoutingSpec) appendKey(b []byte) []byte {
	switch r.Kind {
	case RoutingZipf:
		b = appendFloat(append(b, "zipf("...), r.Alpha)
	case RoutingHot:
		b = appendFloat(append(b, "hot("...), r.HotShare)
	default:
		return append(b, RoutingUniform...)
	}
	return append(b, ')')
}

// PlanRequest is the body of POST /v1/plan. Zero values select the same
// defaults as cmd/lancet: GPT2-S-MoE on 16 V100s, the model's default gate,
// framework "lancet" compared against baseline "tutel", seed 1.
type PlanRequest struct {
	Model   string `json:"model,omitempty"`
	Cluster string `json:"cluster,omitempty"`
	GPUs    int    `json:"gpus,omitempty"`
	// Classes declares a mixed-generation fleet (DESIGN.md §12) in place of
	// the Cluster/GPUs pair; setting both is a client error. Uniform
	// spellings collapse to Cluster/GPUs.
	Classes []ClassSpec `json:"classes,omitempty"`
	Batch   int         `json:"batch,omitempty"`
	Gate    string      `json:"gate,omitempty"`
	// Framework is the plan to serve; Baseline is what it is compared
	// against ("none" disables the comparison).
	Framework string `json:"framework,omitempty"`
	Baseline  string `json:"baseline,omitempty"`
	// Seed drives the simulation; nil selects the CLI's default of 1. A
	// pointer so an explicit 0 — a valid seed the CLI accepts — stays
	// distinguishable from "unset".
	Seed *int64 `json:"seed,omitempty"`
	// Routing is the workload's routing shape; nil selects uniform.
	Routing *RoutingSpec `json:"routing,omitempty"`
	// Topology is the cluster's network hierarchy (racks + spine
	// oversubscription + tenant share); nil selects the flat fabric.
	Topology     *TopologySpec `json:"topology,omitempty"`
	SharedExpert bool          `json:"shared_expert,omitempty"`
	ZeRO3        bool          `json:"zero3,omitempty"`
	Options      PlanOptions   `json:"options,omitempty"`
	// WhatIf asks for a fleet scenario alongside the plan (DESIGN.md §17);
	// nil plans the intact fleet only.
	WhatIf *WhatIfSpec `json:"what_if,omitempty"`
}

// WhatIfSpec is /v1/plan's fleet-scenario field (DESIGN.md §17).
// lost_nodes drops the listed global node indices from the planned
// cluster: the response's result carries a what_if block comparing the
// stale plan's degraded replay against a re-plan on the survivors.
// Requires framework "lancet"; incompatible with the drift loop's nested
// plan (the streamed histogram is shaped for the intact fleet).
type WhatIfSpec struct {
	LostNodes []int `json:"lost_nodes"`
}

// BaselineNone disables the baseline comparison of /v1/plan.
const BaselineNone = "none"

// canonical is a fully resolved, validated request: model aliases expanded,
// the paper's default batch filled in for the cluster, gate defaults
// applied. Two requests that resolve to the same canonical form share one
// plan-store entry.
type canonical struct {
	cfg         lancet.ModelConfig
	clusterType string
	gpus        int
	classes     []ClassSpec        // canonical merged fleet mix; empty = uniform
	nodeClasses []lancet.NodeClass // classes resolved to hw specs, as NewHeteroCluster canonicalized them
	framework   string
	baseline    string // "" = comparison disabled
	seed        int64
	routing     RoutingSpec
	topo        TopologySpec // zero = flat; every flat spelling normalizes to it
	opts        PlanOptions
	lostNodes   []int // sorted, deduplicated what_if.lost_nodes; empty = no what-if

	// profile, when set, replaces the routing spec as the workload: a
	// streamed traffic snapshot from the drift loop (DESIGN.md §16). It is
	// keyed by content fingerprint, so oscillating traffic that returns to
	// a previously planned shape hits the plan store.
	profile *netsim.RoutingProfile
}

// canonicalize validates r and resolves every default. All errors it
// returns are client errors (HTTP 400): the uniform early-error treatment
// -gate and -framework get in the CLIs.
func (r PlanRequest) canonicalize() (*canonical, error) {
	c := &canonical{seed: 1, opts: r.Options}
	if r.Seed != nil {
		c.seed = *r.Seed
	}
	routing, err := normalizeRouting(r.Routing)
	if err != nil {
		return nil, err
	}
	c.routing = routing
	// Negative knobs would silently disable passes (Session.Lancet only
	// substitutes defaults for exactly 0); reject them like every other
	// invalid field.
	if o := r.Options; o.MaxPartitions < 0 || o.GroupUs < 0 || o.MaxRangeGroups < 0 {
		return nil, codedf(CodeBadRequest, "options must be non-negative, got max_partitions %d, group_us %g, max_range_groups %d",
			o.MaxPartitions, o.GroupUs, o.MaxRangeGroups)
	}

	name := r.Model
	if name == "" {
		name = "gpt2-s"
	}
	cfg, err := lancet.ParseModel(name, r.Batch)
	if err != nil {
		return nil, coded(CodeUnknownModel, err)
	}
	if r.Gate != "" {
		gate, err := lancet.ParseGate(r.Gate)
		if err != nil {
			return nil, coded(CodeUnknownGate, err)
		}
		cfg.Gate = gate
	}
	cfg.SharedExpert = r.SharedExpert
	cfg.ZeRO3 = r.ZeRO3

	c.clusterType = strings.ToUpper(strings.TrimSpace(r.Cluster))
	classes, err := normalizeClasses(r.Classes, c.clusterType, r.GPUs)
	if err != nil {
		return nil, err
	}
	// Build the cluster once to reject unknown GPU types, invalid counts
	// and bad topologies up front; NewSession rebuilds it cheaply.
	var cl lancet.Cluster
	if len(classes) > 0 {
		if cl, err = lancet.NewHeteroCluster(classes...); err != nil {
			return nil, coded(CodeBadCluster, err)
		}
		// NewHeteroCluster merges same-spec neighbors and collapses a
		// single class to the uniform cluster; canonicalize from what it
		// resolved, so "2xV100+2xV100" shares the plain cluster/gpus
		// spelling's cache entries.
		c.clusterType = strings.ToUpper(strings.TrimSpace(classes[0].Name))
		c.gpus = cl.TotalGPUs()
		if cl.Heterogeneous() {
			c.nodeClasses = cl.Classes
			for _, nc := range cl.Classes {
				c.classes = append(c.classes, ClassSpec{GPU: nc.Name, Nodes: nc.Count})
			}
		}
	} else {
		if c.clusterType == "" {
			c.clusterType = "V100"
		}
		c.gpus = r.GPUs
		if c.gpus == 0 {
			c.gpus = 16
		}
		if cl, err = lancet.NewCluster(c.clusterType, c.gpus); err != nil {
			return nil, coded(CodeBadCluster, err)
		}
	}
	if n := cl.TotalGPUs(); n > maxFleetGPUs {
		return nil, codedf(CodeBadCluster, "a fleet of %d GPUs exceeds the %d-GPU limit", n, maxFleetGPUs)
	}
	if r.Topology != nil {
		topo := r.Topology.toTopology()
		if cl, err = cl.WithTopology(topo); err != nil {
			return nil, coded(CodeBadTopology, err)
		}
		if !cl.FlatTopology() {
			// Canonical non-flat form: the clamped rack size, the resolved
			// oversubscription factor, and the tenant share when it binds.
			// Every spelling that leaves no spine bottleneck stays the zero
			// (flat) spec, and sole-tenant spellings keep the
			// pre-contention form.
			c.topo = TopologySpec{NodesPerRack: cl.RackNodes(), Oversub: topo.Oversub()}
			if share := topo.Share(); share < 1 {
				c.topo.SpineShare = share
			}
		}
	}
	if cfg.BatchPerGPU <= 0 {
		cfg.BatchPerGPU = cfg.PaperBatchSize(c.clusterType)
	}
	c.cfg = cfg

	c.framework = lancet.FrameworkLancet
	if r.Framework != "" {
		if c.framework, err = lancet.ParseFramework(r.Framework); err != nil {
			return nil, coded(CodeUnknownFramework, err)
		}
	}
	switch strings.ToLower(strings.TrimSpace(r.Baseline)) {
	case "":
		c.baseline = lancet.FrameworkTutel
		if c.baseline == c.framework {
			// The default comparison is meaningless against itself
			// (framework "tutel"); quietly disable it.
			c.baseline = ""
		}
	case BaselineNone:
		c.baseline = ""
	default:
		if c.baseline, err = lancet.ParseFramework(r.Baseline); err != nil {
			return nil, coded(CodeUnknownFramework, err)
		}
		if c.baseline == c.framework {
			return nil, codedf(CodeConflictingFields, "baseline equals framework %q; use baseline %q to disable the comparison",
				c.framework, BaselineNone)
		}
	}
	if r.WhatIf != nil {
		if c.framework != lancet.FrameworkLancet {
			return nil, codedf(CodeConflictingFields, "what_if requires framework %q, got %q", lancet.FrameworkLancet, c.framework)
		}
		lost := slices.Compact(slices.Sorted(slices.Values(r.WhatIf.LostNodes)))
		if len(lost) == 0 {
			return nil, codedf(CodeBadRequest, "what_if.lost_nodes must name at least one node")
		}
		// RemoveNodes validates the indices against the resolved fleet
		// (range and at-least-one-survivor).
		if _, err := cl.RemoveNodes(lost); err != nil {
			return nil, coded(CodeBadRequest, err)
		}
		c.lostNodes = lost
	}
	return c, nil
}

// echo returns the canonical request as a response-friendly PlanRequest, so
// clients see exactly which configuration (defaults resolved) was planned.
func (c *canonical) echo() PlanRequest {
	baseline := c.baseline
	if baseline == "" {
		baseline = BaselineNone
	}
	seed := c.seed
	var routing *RoutingSpec
	if c.routing.Kind != RoutingUniform {
		r := c.routing
		routing = &r
	}
	var topo *TopologySpec
	if c.topo != (TopologySpec{}) {
		t := c.topo
		topo = &t
	}
	cluster, gpus := c.clusterType, c.gpus
	if len(c.classes) > 0 {
		// A hetero fleet is spelled by its classes alone; cluster/gpus
		// would trip the exclusivity check on resubmission.
		cluster, gpus = "", 0
	}
	var whatIf *WhatIfSpec
	if len(c.lostNodes) > 0 {
		whatIf = &WhatIfSpec{LostNodes: append([]int(nil), c.lostNodes...)}
	}
	return PlanRequest{
		Model:        c.cfg.Name,
		Cluster:      cluster,
		GPUs:         gpus,
		Classes:      c.classes,
		Batch:        c.cfg.BatchPerGPU,
		Gate:         c.cfg.Gate.String(),
		Framework:    c.framework,
		Baseline:     baseline,
		Seed:         &seed,
		Routing:      routing,
		Topology:     topo,
		SharedExpert: c.cfg.SharedExpert,
		ZeRO3:        c.cfg.ZeRO3,
		Options:      c.opts,
		WhatIf:       whatIf,
	}
}

// appendEcho appends the request echo as json.MarshalIndent(c.echo(), "  ",
// "  ") writes it: the bytes the echo occupies as the "request" member of
// an indented /v1/plan response. Members follow PlanRequest's declaration
// order and omitempty rules; options, a struct, is never omitted. A new
// PlanRequest field must be appended here too: FuzzPlanRequest checks
// every canonical request's echo against the indenting encoder.
func (c *canonical) appendEcho(b []byte) []byte {
	r := c.echo()
	o := jsonObject(b, 1)
	o.str("model", r.Model)
	o.str("cluster", r.Cluster)
	o.integer("gpus", r.GPUs)
	if len(r.Classes) > 0 {
		o.key("classes")
		l := jsonArray(o.b, 2)
		for _, cs := range r.Classes {
			l.elem()
			e := jsonObject(l.b, 3)
			e.key("gpu")
			e.b = appendJSONString(e.b, cs.GPU)
			e.key("nodes")
			e.b = strconv.AppendInt(e.b, int64(cs.Nodes), 10)
			l.b = e.end()
		}
		o.b = l.end()
	}
	o.integer("batch", r.Batch)
	o.str("gate", r.Gate)
	o.str("framework", r.Framework)
	o.str("baseline", r.Baseline)
	if r.Seed != nil {
		o.key("seed")
		o.b = strconv.AppendInt(o.b, *r.Seed, 10)
	}
	if rt := r.Routing; rt != nil {
		o.key("routing")
		e := jsonObject(o.b, 2)
		e.key("kind")
		e.b = appendJSONString(e.b, rt.Kind)
		e.float("alpha", rt.Alpha)
		e.float("hot_share", rt.HotShare)
		o.b = e.end()
	}
	if t := r.Topology; t != nil {
		o.key("topology")
		e := jsonObject(o.b, 2)
		e.integer("nodes_per_rack", t.NodesPerRack)
		e.float("oversub", t.Oversub)
		e.float("spine_share", t.SpineShare)
		o.b = e.end()
	}
	o.flag("shared_expert", r.SharedExpert)
	o.flag("zero3", r.ZeRO3)
	o.key("options")
	po, ow := r.Options, jsonObject(o.b, 2)
	ow.integer("max_partitions", po.MaxPartitions)
	ow.float("group_us", po.GroupUs)
	ow.integer("max_range_groups", po.MaxRangeGroups)
	ow.flag("disable_dw_schedule", po.DisableDWSchedule)
	ow.flag("disable_partition", po.DisablePartition)
	ow.flag("dw_first_fit", po.DWFirstFit)
	ow.flag("prioritize_all_to_all", po.PrioritizeAllToAll)
	ow.flag("assume_uniform_routing", po.AssumeUniformRouting)
	ow.flag("assume_flat_topology", po.AssumeFlatTopology)
	ow.flag("assume_uniform_hardware", po.AssumeUniformHardware)
	ow.flag("assume_sole_tenancy", po.AssumeSoleTenancy)
	o.b = ow.end()
	if wi := r.WhatIf; wi != nil {
		o.key("what_if")
		e := jsonObject(o.b, 2)
		e.key("lost_nodes")
		l := jsonArray(e.b, 3)
		for _, n := range wi.LostNodes {
			l.elem()
			l.b = strconv.AppendInt(l.b, int64(n), 10)
		}
		e.b = l.end()
		o.b = e.end()
	}
	return o.end()
}

// sessionKey identifies the pooled Session a request plans on: everything
// that shapes the built graph and the cluster's pricing (model, fleet,
// batch, gate, shared expert, ZeRO-3, topology, class mix), nothing that
// only shapes the plan. The routing is left out: each request plans on a
// workload view of the pooled session (DESIGN.md §9). Every uniform fleet
// spelling keeps the pre-heterogeneity key form; a mixed fleet appends its
// canonical class mix. planKey spells the same fields.
func (c *canonical) sessionKey() string {
	var buf [256]byte
	return string(c.appendFleetKey(c.appendModelKey(buf[:0])))
}

// appendModelKey appends the fields every key starts with: model, cluster
// type, GPU count, batch, gate, shared expert and ZeRO-3.
func (c *canonical) appendModelKey(b []byte) []byte {
	b = append(append(b, c.cfg.Name...), '|')
	b = append(append(b, c.clusterType...), '|')
	b = strconv.AppendInt(b, int64(c.gpus), 10)
	b = strconv.AppendInt(append(b, "|b"...), int64(c.cfg.BatchPerGPU), 10)
	b = append(append(b, '|'), c.cfg.Gate.String()...)
	b = strconv.AppendBool(append(b, "|shared"...), c.cfg.SharedExpert)
	return strconv.AppendBool(append(b, "|zero3"...), c.cfg.ZeRO3)
}

// appendFleetKey appends the topology fragment and, for a mixed fleet, its
// canonical class mix, e.g. "|topo=flat|hw=1xA100+1xV100". Uniform fleets
// carry no hw fragment.
func (c *canonical) appendFleetKey(b []byte) []byte {
	b = c.topo.appendKey(append(b, "|topo="...))
	for i, cs := range c.classes {
		if i == 0 {
			b = append(b, "|hw="...)
		} else {
			b = append(b, '+')
		}
		b = append(strconv.AppendInt(b, int64(cs.Nodes), 10), 'x')
		b = append(b, cs.GPU...)
	}
	return b
}

// appendRoutingKey appends the canonical rt= cache-key fragment: the
// routing spec's form for parametric workloads, or the streamed profile's
// content fingerprint for drift-loop re-plans (DESIGN.md §16) — so a
// re-plan for a traffic shape the store has already seen (oscillating
// drift) is a cache hit, not a recomputation.
func (c *canonical) appendRoutingKey(b []byte) []byte {
	if c.profile == nil {
		return c.routing.appendKey(b)
	}
	const hex = "0123456789abcdef"
	fp := c.profile.Fingerprint()
	b = append(b, "stream("...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[fp>>shift&0xf])
	}
	return append(b, ')')
}

// withProfile returns a copy of c whose workload is the streamed profile:
// the drift loop's canonical form for one re-plan. The copy shares the
// resolved config; only the routing fragment of its keys changes.
func (c *canonical) withProfile(p *netsim.RoutingProfile) *canonical {
	cp := *c
	cp.profile = p
	return &cp
}

// planKey identifies one framework's plan-and-simulate outcome in the plan
// store: the session key's fields with the routing's rt= fragment before
// the topology, plus framework, seed and optimization options. Plan-store
// hits build it on every request, so it appends into one stack buffer with
// strconv and allocates only the returned string. Options only shape the
// Lancet plan (Compute ignores them for baselines), so baseline entries
// are shared across option values.
func (c *canonical) planKey(framework string) string {
	var buf [512]byte
	b := c.appendModelKey(buf[:0])
	b = c.appendRoutingKey(append(b, "|rt="...))
	b = c.appendFleetKey(b)
	b = append(append(b, '|'), framework...)
	b = strconv.AppendInt(append(b, "|seed"...), c.seed, 10)
	b = append(b, '|')
	if framework != lancet.FrameworkLancet {
		return string(PlanOptions{}.appendKey(b))
	}
	b = c.opts.appendKey(b)
	// The what-if block rides on the lancet plan's store entry; baseline
	// entries stay shared with what-if-free requests.
	if len(c.lostNodes) > 0 {
		b = append(b, "|loss=["...)
		for i, n := range c.lostNodes {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	return string(b)
}
