// Package lancet is a Go reproduction of "Lancet: Accelerating
// Mixture-of-Experts Training via Whole Graph Computation-Communication
// Overlapping" (MLSys 2024).
//
// Lancet optimizes MoE training iterations with two compiler passes over an
// instruction-sequence IR: scheduling weight-gradient computation to overlap
// backward-pass all-to-alls, and partitioning forward-pass operators —
// including non-MoE computation — into communication-computation pipelines
// chosen by dynamic programming.
//
// Because no GPU cluster is available, hardware is substituted with a
// calibrated analytic cost model and a discrete-event two-stream execution
// simulator (see DESIGN.md §3); the compiler passes themselves are faithful
// to the paper's algorithms. The public API is two nouns (DESIGN.md §1): a
// Session, a model built for a cluster, and a Plan, a rewritten graph with
// its cost model and the workload it was planned for.
//
// Typical use:
//
//	sess, _ := lancet.NewSession(lancet.GPT2SMoE(16), lancet.MustCluster("V100", 16))
//	plan, _ := sess.Lancet(lancet.Options{})
//	base, _ := sess.Baseline(lancet.FrameworkTutel)
//	fmt.Println(plan.MustSimulate(1).IterationMs, base.MustSimulate(1).IterationMs)
package lancet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lancet/internal/baselines"
	"lancet/internal/cache"
	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/moe"
	"lancet/internal/netsim"
	"lancet/internal/passes/commprio"
	"lancet/internal/passes/dwsched"
	"lancet/internal/passes/partition"
	"lancet/internal/sim"
	"lancet/internal/tensor"
	"lancet/internal/trace"
)

// Re-exported configuration types. External users interact with these; the
// internal packages stay private.
type (
	// ModelConfig specifies the benchmark model (see GPT2SMoE/GPT2LMoE).
	ModelConfig = model.Config
	// Cluster is the simulated hardware (see MustCluster).
	Cluster = hw.Cluster
	// Topology is the cluster's network hierarchy above the node boundary:
	// nodes per rack switch and the spine's oversubscription factor
	// (DESIGN.md §11). Attach one with Cluster.WithTopology; the zero value
	// is the flat fabric.
	Topology = hw.Topology
	// NodeClass is one homogeneous slice of a mixed-generation fleet
	// (DESIGN.md §12). Attach classes with Cluster.WithClasses or build a
	// mixed cluster from ParseClasses + NewHeteroCluster.
	NodeClass = hw.NodeClass
	// GateKind selects the MoE routing algorithm.
	GateKind = model.GateKind
)

// Gate kinds.
const (
	GateSwitch        = model.GateSwitch
	GateTop2          = model.GateTop2
	GateBatchPriority = model.GateBatchPriority
	GateRandom        = model.GateRandom
	GateHash          = model.GateHash
	GateExpertChoice  = model.GateExpertChoice
)

// Framework names accepted by Session.Baseline.
const (
	FrameworkDeepSpeed = "deepspeed"
	FrameworkRAF       = "raf"
	FrameworkTutel     = "tutel"
	FrameworkFasterMoE = "fastermoe"
	FrameworkLancet    = "lancet"
)

// Frameworks lists every framework name accepted by Session.Baseline and
// ParseFramework, in the paper's comparison order with Lancet last.
func Frameworks() []string {
	return []string{FrameworkDeepSpeed, FrameworkRAF, FrameworkTutel, FrameworkFasterMoE, FrameworkLancet}
}

// ParseFramework normalizes a user-supplied framework name, erroring on
// unknown values so CLIs and the serving layer can reject typos before any
// session is built.
func ParseFramework(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, fw := range Frameworks() {
		if n == fw {
			return fw, nil
		}
	}
	return "", fmt.Errorf("lancet: unknown framework %q (want %s)", name, strings.Join(Frameworks(), ", "))
}

// ParseModel resolves a user-facing model name — "gpt2-s", "gpt2-l",
// "vit-s", a common alias, or a config's full Name (so echoed service
// requests are re-submittable) — to its benchmark configuration; batch
// follows the GPT2SMoE convention (<= 0 selects the paper's default).
func ParseModel(name string, batch int) (ModelConfig, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "gpt2-s", "s", "small", "gpt2-s-moe":
		return GPT2SMoE(batch), nil
	case "gpt2-l", "l", "large", "gpt2-l-moe":
		return GPT2LMoE(batch), nil
	case "vit-s", "vit", "vit-s-moe":
		return ViTSMoE(batch), nil
	}
	return ModelConfig{}, fmt.Errorf("lancet: unknown model %q (want gpt2-s, gpt2-l or vit-s)", name)
}

// ParseGate resolves a user-facing gate name to its GateKind.
func ParseGate(name string) (GateKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "switch":
		return GateSwitch, nil
	case "top2":
		return GateTop2, nil
	case "bpr", "batch_prioritized":
		return GateBatchPriority, nil
	case "random":
		return GateRandom, nil
	case "hash":
		return GateHash, nil
	case "expert_choice", "ec":
		return GateExpertChoice, nil
	}
	return 0, fmt.Errorf("lancet: unknown gate %q (want switch, top2, bpr, random, hash or expert_choice)", name)
}

// GPT2SMoE returns the small benchmark model with the paper's per-GPU batch
// size for the given GPU type inferred later by NewSession; pass batch <= 0
// to use the paper's defaults.
func GPT2SMoE(batch int) ModelConfig {
	cfg := model.GPT2SMoE()
	if batch > 0 {
		cfg.BatchPerGPU = batch
	}
	return cfg
}

// GPT2LMoE returns the large benchmark model; see GPT2SMoE.
func GPT2LMoE(batch int) ModelConfig {
	cfg := model.GPT2LMoE()
	if batch > 0 {
		cfg.BatchPerGPU = batch
	}
	return cfg
}

// ViTSMoE returns a ViT-S/16-style vision MoE classifier with Batch
// Prioritized Routing — the workload family the BPR gate of the paper's
// Fig. 12 originates from (V-MoE).
func ViTSMoE(batch int) ModelConfig {
	cfg := model.ViTSMoE()
	if batch > 0 {
		cfg.BatchPerGPU = batch
	}
	return cfg
}

// NewCluster builds a simulated cluster of the given GPU type ("V100" for
// p3dn nodes, "A100" for p4de) with the given total GPU count.
func NewCluster(gpuType string, gpus int) (Cluster, error) {
	return hw.ClusterForGPUs(gpuType, gpus)
}

// ClassForGPU builds the NodeClass of `nodes` nodes of a known GPU type.
func ClassForGPU(gpuType string, nodes int) (NodeClass, error) {
	return hw.ClassForGPU(gpuType, nodes)
}

// NewHeteroCluster assembles a (possibly mixed-generation) cluster from an
// ordered class list (DESIGN.md §12). The first class is what a
// hetero-blind planner assumes fleet-wide; a list that collapses to a
// single class builds the plain uniform cluster.
func NewHeteroCluster(classes ...NodeClass) (Cluster, error) {
	return hw.ClusterFromClasses(classes)
}

// ParseClasses parses the CLI/serving-layer fleet syntax "4xA100+4xV100"
// (also comma-separated): each term is COUNTxTYPE with COUNT in nodes.
func ParseClasses(spec string) ([]NodeClass, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == '+' || r == ',' })
	if len(fields) == 0 {
		return nil, fmt.Errorf("lancet: empty class spec %q (want e.g. 4xA100+4xV100)", spec)
	}
	classes := make([]NodeClass, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		count, gpuType, ok := strings.Cut(f, "x")
		n, err := strconv.Atoi(strings.TrimSpace(count))
		if !ok || err != nil || n <= 0 {
			return nil, fmt.Errorf("lancet: bad class term %q in %q (want COUNTxTYPE, e.g. 4xA100)", f, spec)
		}
		nc, err := hw.ClassForGPU(strings.TrimSpace(gpuType), n)
		if err != nil {
			return nil, err
		}
		classes = append(classes, nc)
	}
	return classes, nil
}

// MustCluster is NewCluster, panicking on error.
func MustCluster(gpuType string, gpus int) Cluster {
	c, err := NewCluster(gpuType, gpus)
	if err != nil {
		panic(err)
	}
	return c
}

// Options are Lancet's optimization hyper-parameters (paper Sec. 6). Zero
// values select the paper's auto-tuned settings: rho=8, gamma sized so five
// instruction groups fit between consecutive MoE layers, iota spanning one
// MoE layer.
type Options struct {
	// MaxPartitions is rho, the maximum partition count.
	MaxPartitions int
	// GroupUs is gamma, the DP instruction-group granularity.
	GroupUs float64
	// MaxRangeGroups is iota, the maximum pipeline length in groups.
	MaxRangeGroups int
	// DisableDWSchedule ablates the weight-gradient scheduling pass.
	DisableDWSchedule bool
	// DisablePartition ablates the operator partition pass.
	DisablePartition bool
	// DWFirstFit replaces the best-fit dW heuristic with first-fit
	// (ablation of the design choice).
	DWFirstFit bool
	// PrioritizeAllToAll additionally runs the Lina-style communication
	// priority pass (paper Sec. 8): gradient all-reduces are pushed behind
	// the backward all-to-alls they would otherwise head-of-line block.
	PrioritizeAllToAll bool
	// View, when non-nil, derives the view every optimization pass prices
	// against from reality — the session's cluster and routing profile —
	// while simulation still replays reality (DESIGN.md §8). The
	// blind-planner ablations are its derivations View.Flat,
	// View.UniformHardware, View.SoleTenant and View.UniformRouting, alone
	// or composed, and a stale profile is v.Profile = p. It is a function so
	// that NodeLoss and ElasticResize re-derive it for each session they
	// plan. The derived view must keep the session's GPU count, and its
	// profile must be shaped for it.
	View func(View) View
	// Hint is ignored: every plan runs the full partition DP (DESIGN.md
	// §14).
	//
	// Deprecated: the warm start it fed could return costlier plans than a
	// cold DP and saved little time once the DP resumed its pipeline
	// simulations. The field stays only until the benchmark module stops
	// setting it.
	Hint []PipelineHint
	// FixedPipelines replays a previous plan's chosen pipelines verbatim
	// instead of running the partition DP: each range keeps its partition
	// count (clamped to what the graph admits) and no partition decisions
	// are revisited. This is the degraded-replay half of a node-loss
	// what-if — "how does the stale plan behave on this fleet" (DESIGN.md
	// §17).
	FixedPipelines []PipelineHint
}

// PipelineHint is one chosen pipeline of a plan: the instruction range
// (input-graph program order, inclusive) and its partition count, which
// Options.FixedPipelines replays (DESIGN.md §17).
type PipelineHint struct {
	Start int `json:"start"`
	End   int `json:"end"`
	K     int `json:"k"`
}

// Session holds a model instance built for a cluster, ready to be planned
// by Lancet or by the baseline frameworks.
//
// A Session is safe for concurrent use once built: plans may be computed
// and simulated from multiple goroutines while SetWorkloadProfile swaps the
// streamed workload, because each Lancet plan keeps the workload it was
// planned for (DESIGN.md §7). The shared cost model reads its op-profile
// memo without a lock and routing proxies are memoized process-wide. This
// is what lets cmd/lancet plan frameworks in parallel and lets the serving
// layer (cmd/lancet-serve) pool sessions across requests. What depends
// only on the built graph and the cluster — the Tutel baseline's graph,
// the dW schedule of each option key and gamma — is derived once, on
// first use, and kept as long as the session, so a warm Tutel call
// rewrites and searches nothing. Writing WorkloadSkew or
// WorkloadHotExpert races with planning; to plan another parametric
// workload on a session in use, take a WithWorkload view instead.
type Session struct {
	Config  ModelConfig
	Cluster Cluster
	Built   *model.Built

	// WorkloadSkew biases the routing-profile workload toward a few hot
	// experts (Zipf exponent; 0 = balanced). Skewed routing drops more
	// tokens and turns the hot expert's device into an ingress bottleneck,
	// which both planning and actual runs price with the link-level network
	// simulator (DESIGN.md §10).
	WorkloadSkew float64

	// WorkloadHotExpert biases the workload so roughly this fraction of all
	// tokens targets one hot expert (0 = balanced). It is the
	// single-hot-spot companion to WorkloadSkew's Zipf tail and exclusive
	// with it: every call that routes the workload of a session with both
	// set returns an error.
	WorkloadHotExpert float64

	// derived holds the session's cost model and what is computed from it
	// and the built graph, shared with every WithWorkload view.
	derived *derived

	// streamed, when set via SetWorkloadProfile, replaces the parametric
	// gate-proxy workload entirely: plans planned while it is installed
	// price and replay this streamed traffic shape (DESIGN.md §16).
	streamed atomic.Pointer[netsim.RoutingProfile]
}

// routingProfile is what one functional gate run over a proxy batch tells
// the simulator about a configuration's dispatch traffic.
type routingProfile struct {
	devices int
	tokens  int   // proxy tokens per device
	routed  int64 // tokens routed in total
	// shares[m] is the fraction of the padded per-device payload
	// micro-batch m of the split actually moves.
	shares []float64
	// hotExpertShare is the fraction of routed tokens on the single most
	// popular expert (drives FasterMoE-style shadowing).
	hotExpertShare float64
	// net is the send matrix packaged for the link-level pricing path
	// (cost.AllToAllSkewedUs, the partition DP, the simulator replay).
	net *netsim.RoutingProfile
}

// NewSession builds the training graph for cfg on the cluster. A
// non-positive BatchPerGPU selects the paper's batch size for the GPU type
// (a mixed fleet's base class — the name before the first "+" — so the CLI
// and the serving layer resolve the same default).
func NewSession(cfg ModelConfig, cluster Cluster) (*Session, error) {
	if cfg.BatchPerGPU <= 0 {
		base, _, _ := strings.Cut(cluster.Name, "+")
		cfg.BatchPerGPU = cfg.PaperBatchSize(base)
	}
	b, err := model.Build(cfg, cluster)
	if err != nil {
		return nil, err
	}
	return &Session{
		Config:  cfg,
		Cluster: cluster,
		Built:   b,
		derived: &derived{costs: cost.NewModel(cluster)},
	}, nil
}

// derived is a cost model and what a session computes from it and the
// built graph, each part once, on first use. None of it reads the
// workload, so a session and its WithWorkload views share one record
// (DESIGN.md §4, §5). A plan whose View prices another cluster builds a
// record of its own for that call.
type derived struct {
	// costs is the model every part is priced on: the session's RAF cost
	// model, or a View's.
	costs *cost.Model
	// tutel is the Tutel overlap-degree search (searchTutel).
	tutel onceValue[tutelChoice]
	// schedules holds, per passKey, the graph the partition pass starts
	// from (runPasses).
	schedules [numPassKeys]onceValue[scheduled]
	// groupUs is the DP group size gamma (autoGroupUs).
	groupUs onceValue[float64]
}

// WithWorkload returns a session for the same model and cluster under
// another parametric workload: WorkloadSkew skew and WorkloadHotExpert
// hotExpert, with no streamed profile. The view shares the receiver's
// Config, Cluster, built graph and cost model — network model,
// communication tables, skew tables and op-profile memo — so it costs one
// small allocation, and any number of views may plan concurrently
// (DESIGN.md §7, §9). It also shares what the session derives from them:
// the first Baseline(FrameworkTutel) call on the session or any of its
// views runs the degree search, and every later one, on any of them,
// returns the graph it chose with no rewrite (DESIGN.md §5); the first
// Lancet call per combination of PrioritizeAllToAll, DisableDWSchedule and
// DWFirstFit runs those passes, and every later one that prices on the
// session's cost model starts its partition pass from their graph, so its
// Plan.OptimizeTime no longer includes them (DESIGN.md §4). Setting both
// workload knobs is an error at plan time, as for any session. A view
// starts without a streamed profile, so its first SetWorkloadProfile
// supersedes nothing and invalidates nothing in the shared cost model:
// the serving layer plans each drift re-plan's streamed traffic this way,
// on a fresh view of a pooled session (DESIGN.md §16).
func (s *Session) WithWorkload(skew, hotExpert float64) *Session {
	return &Session{
		Config:            s.Config,
		Cluster:           s.Cluster,
		Built:             s.Built,
		WorkloadSkew:      skew,
		WorkloadHotExpert: hotExpert,
		derived:           s.derived,
	}
}

// Plan is an executable schedule: a rewritten graph, the cost model it
// should run under and, for Lancet plans, the workload it was planned for.
// A Plan is immutable after planning and safe to share across goroutines;
// Simulate, PredictUs and ChromeTrace may be called concurrently.
type Plan struct {
	Name        string
	Framework   string
	Graph       *ir.Graph
	TutelDegree int
	// OOM marks configurations whose memory footprint exceeds the device
	// (rendered as the red crosses of paper Fig. 11).
	OOM bool
	// OptimizeTime is the wall-clock time the optimization passes took
	// (paper Fig. 15). A Tutel plan times the session's degree search on
	// the call that ran it, and no pass on a later call, which returns the
	// graph the search chose. A Lancet plan times the dW schedule only on
	// the call that ran it for its options (see WithWorkload); Fig. 15
	// plans each configuration on a fresh session, so its column times
	// both passes.
	OptimizeTime time.Duration
	// DWOverlapUs is the predicted all-to-all time covered by scheduled
	// weight-gradient computation.
	DWOverlapUs float64
	// DPEvaluations counts the P(i,n,k) candidates the partition DP
	// considered (optimization effort), prices it reused from a repeated
	// block included, summed over the pass's memory fallbacks; a
	// FixedPipelines replay counts one per range it prices.
	DPEvaluations int
	// Pipelines lists the chosen pipelines in program order (instruction
	// range + partition count; the counts are the plan shape that shifts
	// under skewed routing): what Options.FixedPipelines replays
	// (DESIGN.md §17).
	Pipelines []PipelineHint
	// RhoUsed is the maximum-partition limit actually used after the OOM
	// fallback (paper Sec. 7: rho=8, reduced to 4 then 2 when partition
	// staging would exceed device memory).
	RhoUsed int

	costs *cost.Model
	// predictedUs, when set, is PredictUs's answer, known without a
	// simulation: a Tutel plan's, from its session's degree search, which
	// ran Graph in predict mode on costs.
	predictedUs *float64
	// irregular returns a Lancet plan's irregular all-to-all overrides,
	// derived once, on first use, from the workload the plan was planned
	// for (DESIGN.md §13). Nil for baselines, which send padded buffers.
	irregular func() (a2aOverrides, error)
	// part is the partition pass's result Graph was carved from, which
	// Release hands back; nil when a session or a baseline owns Graph.
	part *partition.Result
}

// errReleased is what a released plan's simulations return.
var errReleased = errors.New("lancet: plan released")

// Release gives the storage of a Lancet plan's rewritten graph back to the
// partition pass, which carves the next plan's rewrite from it, and clears
// Graph (DESIGN.md §7). The caller must hold the plan's last use: nothing
// may read Graph, or an instruction or tensor of it, afterwards, and
// PredictUs, Simulate, SimulateN and ChromeTrace return an error. The
// plan's numbers and Pipelines stay readable. A plan whose graph a session
// or a baseline owns (DisablePartition, Tutel, FasterMoE, DeepSpeed, RAF)
// ignores the call, and so does a released plan.
func (p *Plan) Release() {
	if p.part == nil {
		return
	}
	p.part.Release()
	p.part, p.Graph, p.irregular = nil, nil, nil
}

// a2aOverrides are the per-instruction all-to-all payloads and durations a
// Lancet plan's workload actually routes (see irregularOverrides).
type a2aOverrides struct {
	bytes map[int]int64
	durUs map[int]float64 // nil for balanced workloads
}

// CostStats is a snapshot of a cost model's memoization counters,
// re-exported from the internal cost package for observability surfaces
// like lancet-serve's /v1/stats. Hits and Misses count lookups in the
// three memos the cost model keeps: op profiles, skew tables (a miss is a
// table build) and uniform replays. Communication predictions are not
// memoized, so they are not counted (DESIGN.md §3).
type CostStats = cost.CacheStats

// CostStats reports the memoization counters of the session's shared RAF
// cost model — the model Lancet plans, predictions and the partition DP
// price against. Baselines price with models derived from it (the same
// network model and communication tables, their own memo): Tutel plans
// on the one its session's degree search kept, every other Baseline call
// on one of its own. Their counters are not included here.
func (s *Session) CostStats() CostStats { return s.derived.costs.Stats() }

// SetWorkloadProfile installs a streamed routing profile as the session's
// workload (DESIGN.md §16): plans planned from now on price against p's
// traffic shape and simulation replays it, replacing the parametric gate
// proxy entirely; passing nil reverts to the parametric workload. The
// serving layer's drift loop installs each re-plan's decayed traffic
// snapshot on a fresh WithWorkload view, where the call supersedes nothing.
// Plans computed before a swap keep the workload they were planned for;
// replaying a stale plan under the new traffic is a re-plan with
// Options.FixedPipelines set to its pipelines. The swap validates p and
// stores it, and writes nothing the session's views share. A session
// swapped in place adds one skew table per profile to the cost model they
// share, whose registry evicts its least recently used tables past a
// fixed cap; a table is a pure function of cluster and profile, so one
// kept past its swap changes no price.
func (s *Session) SetWorkloadProfile(p *netsim.RoutingProfile) error {
	if err := s.derived.costs.ValidateProfile(p); err != nil {
		return err
	}
	s.streamed.Store(p)
	return nil
}

// RoutingProfile returns the per-pair traffic histogram of the session's
// workload, produced by functionally routing a proxy batch through the
// configured gate (DESIGN.md §10). Balanced workloads return nil: every
// consumer treats nil as "price with the closed-form uniform model". For a
// streamed workload the histogram is the *delivered* traffic — the
// installed profile after expert capacity has clipped over-subscribed
// destinations — which is the shape planning prices and simulation
// replays.
func (s *Session) RoutingProfile() (*netsim.RoutingProfile, error) {
	prof, _, err := s.routingContext(s.streamedProfile())
	return prof, err
}

// streamedProfile packages the installed streamed profile with
// syntheticProfile, or returns nil when none is installed. A Lancet plan
// calls it once and derives every partition count's statistics from it.
func (s *Session) streamedProfile() *routingProfile {
	wp := s.streamed.Load()
	if wp == nil {
		return nil
	}
	return syntheticProfile(wp, s.Config.CapacityFactor)
}

// routingContext returns the routing profile of the workload — the
// packaged streamed profile wp, or the parametric one when wp is nil —
// plus the fraction of the padded all-to-all payload it actually routes:
// the two inputs the partition DP needs to price all-to-alls the way the
// simulator will replay them. Balanced workloads return (nil, 1).
func (s *Session) routingContext(wp *routingProfile) (*netsim.RoutingProfile, float64, error) {
	if wp == nil && s.WorkloadSkew <= 0 && s.WorkloadHotExpert <= 0 {
		return nil, 1, nil
	}
	p, err := s.profile(wp, 1)
	if err != nil {
		return nil, 0, err
	}
	frac := 1.0
	if len(p.shares) > 0 && p.shares[0] > 0 && p.shares[0] < 1 {
		frac = p.shares[0]
	}
	return p.net, frac, nil
}

// Lancet runs both optimization passes and returns the optimized plan. The
// plan keeps the workload installed when it is planned: a later
// SetWorkloadProfile changes none of its outputs. A plan with a rewritten
// graph owns that graph's storage until Release.
func (s *Session) Lancet(opts Options) (*Plan, error) {
	start := time.Now()
	plan := &Plan{Name: "Lancet", Framework: FrameworkLancet, costs: s.derived.costs}

	// The passes price view on d.costs; simulation (plan.costs) always
	// replays reality. The two differ only under Options.View, whose view
	// gets a record of its own unless it keeps the real cluster.
	wp := s.streamedProfile()
	prof, frac, err := s.routingContext(wp)
	if err != nil {
		return nil, fmt.Errorf("lancet: routing profile: %w", err)
	}
	view, d := View{Cluster: s.Cluster, Profile: prof}, s.derived
	if opts.View != nil {
		view = opts.View(view)
		if got, want := view.Cluster.TotalGPUs(), s.Cluster.TotalGPUs(); got != want {
			return nil, fmt.Errorf("lancet: view has %d GPUs, session has %d", got, want)
		}
		if !reflect.DeepEqual(view.Cluster, s.Cluster) {
			d = &derived{costs: cost.NewModel(view.Cluster)}
		}
		if err := d.costs.ValidateProfile(view.Profile); err != nil {
			return nil, fmt.Errorf("lancet: view profile: %w", err)
		}
	}

	key := opts.passKey()
	sched, err := d.schedules[key].get(func() (scheduled, error) { return runPasses(s.Built.Graph, d.costs, key) })
	if err != nil {
		return nil, err
	}
	g := sched.graph
	plan.DWOverlapUs = sched.dwOverlapUs

	if !opts.DisablePartition {
		popts := partition.Options{
			MaxPartitions:    opts.MaxPartitions,
			GroupUs:          opts.GroupUs,
			MaxRangeGroups:   opts.MaxRangeGroups,
			GatePartialBatch: s.Config.Gate.SupportsPartialBatch(),
		}
		var ranges []partition.Range
		for _, h := range opts.FixedPipelines {
			ranges = append(ranges, partition.Range{Start: h.Start, End: h.End, K: h.K})
		}
		fixed := len(opts.FixedPipelines) > 0
		popts.Profile, popts.PayloadFraction = view.Profile, frac
		if popts.GroupUs == 0 {
			popts.GroupUs, _ = d.groupUs.get(func() (float64, error) { return s.autoGroupUs(d.costs), nil })
		}
		if popts.MaxRangeGroups == 0 {
			popts.MaxRangeGroups = 7 // ~ five groups between MoE layers plus the core
		}
		if popts.MaxPartitions == 0 {
			popts.MaxPartitions = 8
		}
		// Paper Sec. 7: rho starts at 8 and halves (4, then 2) when the
		// partition staging buffers would not fit in device memory. A fixed
		// replay follows the same fallback: its Ks are clamped by the
		// shrinking rho until the staging fits.
		for {
			var res *partition.Result
			var err error
			if fixed {
				res, err = partition.Replay(g, d.costs, popts, ranges)
			} else {
				res, err = partition.Run(g, d.costs, popts)
			}
			if err != nil {
				return nil, fmt.Errorf("lancet: partition pass: %w", err)
			}
			if popts.MaxPartitions <= 2 || s.partitionFits(res) {
				g, plan.part = res.Graph, res
				plan.Pipelines = plan.Pipelines[:0]
				for _, r := range res.Ranges {
					plan.Pipelines = append(plan.Pipelines, PipelineHint{Start: r.Start, End: r.End, K: r.K})
				}
				plan.DPEvaluations += res.Evaluations
				plan.RhoUsed = popts.MaxPartitions
				break
			}
			plan.DPEvaluations += res.Evaluations
			res.Release()
			popts.MaxPartitions /= 2
		}
	}

	plan.Graph = g
	plan.irregular = sync.OnceValues(func() (a2aOverrides, error) { return s.irregularOverrides(g, wp) })
	plan.OptimizeTime = time.Since(start)
	plan.OOM = !s.Built.FitsMemory(model.MemoryCompiled)
	return plan, nil
}

// passKey packs what the routing-free passes read of Options, one bit
// each; it numbers a session's schedules.
type passKey uint8

const (
	passPrioritize passKey = 1 << iota // Options.PrioritizeAllToAll
	passSkipDW                         // Options.DisableDWSchedule
	passFirstFit                       // Options.DWFirstFit

	numPassKeys = 8
)

func (o Options) passKey() passKey {
	var k passKey
	if o.PrioritizeAllToAll {
		k |= passPrioritize
	}
	if o.DisableDWSchedule {
		k |= passSkipDW
	}
	if o.DWFirstFit {
		k |= passFirstFit
	}
	return k
}

// scheduled is the graph the partition pass starts from and the
// all-to-all time its dW schedule covers.
type scheduled struct {
	graph       *ir.Graph
	dwOverlapUs float64
}

// dwRun runs the dW schedule pass; tests wrap it to count pass runs.
var dwRun = dwsched.Run

// runPasses runs the passes key selects on g, pricing on cm: the
// all-to-all prioritization, then the dW schedule. They read g, cm and
// key, never the workload, so a record runs them once per key
// (DESIGN.md §4).
func runPasses(g *ir.Graph, cm *cost.Model, key passKey) (scheduled, error) {
	if key&passPrioritize != 0 {
		res, err := commprio.Run(g)
		if err != nil {
			return scheduled{}, fmt.Errorf("lancet: comm priority pass: %w", err)
		}
		g = res.Graph
	}
	if key&passSkipDW != 0 {
		return scheduled{graph: g}, nil
	}
	strat := dwsched.BestFit
	if key&passFirstFit != 0 {
		strat = dwsched.FirstFit
	}
	res, err := dwRun(g, cm, dwsched.Options{Strategy: strat})
	if err != nil {
		return scheduled{}, fmt.Errorf("lancet: dW schedule pass: %w", err)
	}
	return scheduled{res.Graph, res.OverlappedUs}, nil
}

// partitionFits reports whether the chosen pipelines' staging buffers
// (each micro-partition double-buffers its slice of the dispatch payload)
// fit next to the model's training footprint.
func (s *Session) partitionFits(res *partition.Result) bool {
	var staging int64
	for _, r := range res.Ranges {
		staging += 2 * int64(r.K) * s.Built.A2ABytes
	}
	return float64(s.Built.MemoryBytes(model.MemoryCompiled)+staging) <= s.Cluster.MemBytes()
}

// autoGroupUs sizes gamma so roughly five groups fit between consecutive
// MoE layers (paper Sec. 7, hyper-parameters), priced with the planner's
// cost model so a topology-blind planner also groups blind.
func (s *Session) autoGroupUs(cm *cost.Model) float64 {
	fwd := 0.0
	for _, in := range s.Built.Graph.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwd += cm.PredictInstr(in)
	}
	n := s.Config.NumMoELayers()
	if n == 0 {
		n = 1
	}
	return fwd / float64(5*n)
}

// Baseline plans the model under one of the comparison frameworks:
// FrameworkDeepSpeed, FrameworkRAF, FrameworkTutel or FrameworkFasterMoE.
// Passing FrameworkLancet delegates to Lancet with default Options.
//
// Each plan prices on a cost model derived from the session's at the
// framework's compute scale. Tutel's overlap degree is searched once per
// session, views included: the first Tutel call runs the search, and
// every call returns the graph it chose, priced on the model the search
// kept, with no rewrite (DESIGN.md §5). A search that failed fails every
// later Tutel call the same way.
func (s *Session) Baseline(framework string) (*Plan, error) {
	var spec baselines.Spec
	switch framework {
	case FrameworkDeepSpeed:
		spec = baselines.DeepSpeed
	case FrameworkRAF:
		spec = baselines.RAF
	case FrameworkTutel:
		spec = baselines.Tutel
	case FrameworkFasterMoE:
		spec = baselines.FasterMoE
	case FrameworkLancet:
		return s.Lancet(Options{})
	default:
		return nil, fmt.Errorf("lancet: unknown framework %q", framework)
	}
	plan := &Plan{Name: spec.Name, Framework: framework}
	if framework != FrameworkTutel {
		plan.costs = s.derived.costs.WithComputeScale(spec.ComputeScale)
	}
	start := time.Now()
	switch framework {
	case FrameworkTutel:
		t := &s.derived.tutel
		if _, err := t.get(func() (tutelChoice, error) { return searchTutel(s.Built, s.derived.costs) }); err != nil {
			return nil, err
		}
		c := &t.val // written once, by the search; read-only since
		plan.Graph, plan.TutelDegree, plan.costs = c.graph, c.degree, c.costs
		plan.predictedUs = &c.predictedUs
	case FrameworkFasterMoE:
		prof, err := s.profile(s.streamedProfile(), 1)
		if err != nil {
			return nil, err
		}
		g, err := baselines.FasterMoEPlan(s.Built, prof.hotExpertShare)
		if err != nil {
			return nil, err
		}
		plan.Graph = g
	default:
		plan.Graph = baselines.SequentialPlan(s.Built)
	}
	plan.OptimizeTime = time.Since(start)
	plan.OOM = spec.OOMs(s.Built)
	return plan, nil
}

// tutelChoice is what a successful Tutel search keeps: the chosen graph,
// its degree, the model the search priced it on and its predicted
// iteration time, which is every Tutel plan's PredictUs.
type tutelChoice struct {
	graph       *ir.Graph
	degree      int
	costs       *cost.Model
	predictedUs float64
}

// searchTutel runs the Tutel overlap-degree search: it predicts every
// candidate degree's graph on a model derived from base at Tutel's
// compute scale and keeps the fastest. The kept model only ever prices
// that graph, every bucket of which the search memoized, so every plan
// prices exactly like the search's (DESIGN.md §5).
func searchTutel(b *model.Built, base *cost.Model) (tutelChoice, error) {
	cm := base.WithComputeScale(baselines.Tutel.ComputeScale)
	ex := &sim.Executor{Cost: cm, Predict: true}
	g, degree, us, err := baselines.BestTutelPlan(b, func(g *ir.Graph) (float64, error) {
		tl, err := ex.Run(g)
		if err != nil {
			return 0, err
		}
		return tl.TotalUs, nil
	})
	if err != nil {
		return tutelChoice{}, err
	}
	return tutelChoice{g, degree, cm, us}, nil
}

// onceValue runs a computation once and gives every call its outcome:
// the value and error it returned or, if it panicked, the same panic,
// like sync.OnceValues. It is a plain value rather than a closure, so a
// session allocates its memos in one piece.
type onceValue[T any] struct {
	once      sync.Once
	done      bool // the computation returned; unset after a panic
	recovered any  // what a panicking computation panicked with
	val       T
	err       error
}

// get runs f on the first call and returns its outcome on every call. A
// panic is recorded before it propagates, and every later call re-raises
// it.
func (o *onceValue[T]) get(f func() (T, error)) (T, error) {
	o.once.Do(func() {
		defer func() {
			if !o.done {
				o.recovered = recover()
				panic(o.recovered)
			}
		}()
		o.val, o.err = f()
		o.done = true
	})
	if !o.done {
		panic(o.recovered)
	}
	return o.val, o.err
}

// PredictUs returns the optimizer-visible iteration time estimate (cached
// profiles, interpolated comm tables, C/n static-shape approximation) —
// the "predicted time" axis of paper Fig. 14. For Lancet plans the
// expected irregular payloads, known from the compile-time profiling
// batch, feed the same interpolated table. A Tutel plan returns the
// prediction its session's degree search made of the chosen degree's
// graph, on the model the plan prices on, which memoized every bucket
// that graph reads: simulating the graph again would return the same
// value (DESIGN.md §5).
func (p *Plan) PredictUs() (float64, error) {
	if p.predictedUs != nil {
		return *p.predictedUs, nil
	}
	if p.Graph == nil {
		return 0, errReleased
	}
	ex := &sim.Executor{Cost: p.costs, Predict: true}
	if p.irregular != nil {
		ov, err := p.irregular()
		if err != nil {
			return 0, err
		}
		ex.A2ABytesOverride = ov.bytes
	}
	tl, err := ex.Run(p.Graph)
	if err != nil {
		return 0, err
	}
	return tl.TotalUs, nil
}

// Report is the outcome of one simulated training iteration.
type Report struct {
	IterationMs float64
	// Decomposition (paper Figs. 2 and 13).
	NonOverlappedCommMs    float64
	NonOverlappedComputeMs float64
	OverlapMs              float64
	// Category views.
	AllToAllMs         float64
	NonOverlappedA2AMs float64
	ExpertMs           float64
	CommMs             float64
	ComputeMs          float64
	// IrregularA2AMs is the all-to-all time executed with irregular
	// (routing-derived) durations — the replayed skew traffic for hot
	// workloads, the unpadded payload for balanced ones. Zero for padded
	// baselines.
	IrregularA2AMs float64
	// A2ABoundNVLinkMs, A2ABoundNICMs and A2ABoundSpineMs decompose
	// AllToAllMs by the topology tier bounding each exchange (DESIGN.md
	// §11): on a flat fabric the spine bucket is zero; under an
	// oversubscribed spine the all-to-all time migrates into it.
	A2ABoundNVLinkMs float64
	A2ABoundNICMs    float64
	A2ABoundSpineMs  float64
	// StragglerClassMs attributes, per node class, the compute time the
	// iteration spent waiting on that class beyond what the fleet's
	// fastest class would have taken (DESIGN.md §12) — the
	// heterogeneity penalty a uniform-planned replay pays. Nil on uniform
	// clusters.
	StragglerClassMs map[string]float64
	// OOM propagates the plan's memory verdict.
	OOM bool
}

// Simulate executes the plan for one iteration with execution jitter and —
// for Lancet plans — the irregular all-to-all payloads derived from
// functionally routing a token batch (the padded buffers baselines send
// are replaced by what the gate actually dispatched).
func (p *Plan) Simulate(seed int64) (*Report, error) {
	ex, err := p.executor(seed)
	if err != nil {
		return nil, err
	}
	tl, err := ex.Run(p.Graph)
	if err != nil {
		return nil, err
	}
	var straggler map[string]float64
	if len(tl.StragglerClassUs) > 0 {
		straggler = make(map[string]float64, len(tl.StragglerClassUs))
		for class, us := range tl.StragglerClassUs {
			straggler[class] = us / 1000
		}
	}
	return &Report{
		IterationMs:            tl.TotalUs / 1000,
		NonOverlappedCommMs:    tl.NonOverlappedCommUs / 1000,
		NonOverlappedComputeMs: tl.NonOverlappedComputeUs / 1000,
		OverlapMs:              tl.OverlapUs / 1000,
		AllToAllMs:             tl.AllToAllUs / 1000,
		NonOverlappedA2AMs:     tl.NonOverlappedA2AUs / 1000,
		ExpertMs:               tl.ExpertUs / 1000,
		CommMs:                 tl.CommBusyUs / 1000,
		ComputeMs:              tl.ComputeBusyUs / 1000,
		IrregularA2AMs:         tl.IrregularA2AUs / 1000,
		A2ABoundNVLinkMs:       tl.A2ATierUs[hw.TierNVLink] / 1000,
		A2ABoundNICMs:          tl.A2ATierUs[hw.TierNIC] / 1000,
		A2ABoundSpineMs:        tl.A2ATierUs[hw.TierSpine] / 1000,
		StragglerClassMs:       straggler,
		OOM:                    p.OOM,
	}, nil
}

// MustSimulate is Simulate, panicking on error.
func (p *Plan) MustSimulate(seed int64) *Report {
	r, err := p.Simulate(seed)
	if err != nil {
		panic(err)
	}
	return r
}

// ChromeTrace renders one simulated iteration as Chrome trace-event JSON:
// the same iteration Simulate(seed) reports.
func (p *Plan) ChromeTrace(seed int64) ([]byte, error) {
	ex, err := p.executor(seed)
	if err != nil {
		return nil, err
	}
	tl, err := ex.RunTraced(p.Graph)
	if err != nil {
		return nil, err
	}
	return trace.Export(p.Graph, tl)
}

// executor sets up one seeded iteration of the plan — the single executor
// behind Simulate and ChromeTrace: execution jitter, systematic per-op
// drift and, for Lancet plans, the irregular all-to-all byte and duration
// overrides.
func (p *Plan) executor(seed int64) (sim.Executor, error) {
	if p.Graph == nil {
		return sim.Executor{}, errReleased
	}
	ex := sim.Executor{Cost: p.costs, JitterPct: 0.02, SystematicPct: 0.04, Seed: seed}
	if p.irregular != nil {
		ov, err := p.irregular()
		if err != nil {
			return sim.Executor{}, err
		}
		ex.A2ABytesOverride, ex.A2ADurOverrideUs = ov.bytes, ov.durUs
	}
	return ex, nil
}

// irregularOverrides derives per-all-to-all actual payloads of graph g
// under the workload wp (the packaged streamed profile, nil: the
// parametric one) from a functional routing run, or from wp's even split:
// micro-partition m of a k-way split carries the tokens its
// micro-batch actually routed (paper Fig. 5c), and even unpartitioned
// all-to-alls shed their zero padding (Fig. 10). Balanced workloads are
// priced by payload; skewed workloads additionally price the routing
// profile's transfer matrix on the link-level network simulator — through
// the cost model's AllToAllSkewedUs, which interpolates the profile's skew
// table, built once per session and profile — where the hot expert's
// device bounds completion (DESIGN.md §10).
func (s *Session) irregularOverrides(g *ir.Graph, wp *routingProfile) (a2aOverrides, error) {
	ov := a2aOverrides{bytes: make(map[int]int64)}
	profiles := make(map[int]*routingProfile) // per-k dispatch statistics
	perTokenBytes := int64(s.Config.Hidden) * s.Config.DType.Size()
	cm := s.derived.costs
	var sizeExchange float64
	for id, in := range g.Instrs {
		if in.Op != ir.OpAllToAll {
			continue
		}
		k := in.NumParts
		if k < 1 {
			k = 1
		}
		p, ok := profiles[k]
		if !ok {
			var err error
			if p, err = s.profile(wp, k); err != nil {
				return a2aOverrides{}, err
			}
			profiles[k] = p
		}
		m := in.PartIdx
		if m >= len(p.shares) {
			m = len(p.shares) - 1
		}
		ov.bytes[id] = int64(p.shares[m] * float64(s.Built.A2ABytes))
		// Only skewed workloads carry a network profile.
		if p.net != nil && p.devices == s.Cluster.TotalGPUs() {
			if ov.durUs == nil {
				ov.durUs = make(map[int]float64)
				// The size-exchange phase replays a uniform 4-byte-per-pair
				// matrix, once per cost model (p.devices == TotalGPUs holds
				// here, per the guard above).
				sizeExchange = cm.SizeExchangeUs()
			}
			microFrac := 0.0
			if total := sumf(p.shares); total > 0 {
				microFrac = p.shares[m] / total
			}
			// The micro a2a moves the profile's traffic shape at a mean
			// per-device payload of this micro-batch's routed share, scaled
			// from proxy tokens to the real batch.
			scale := float64(s.Config.TokensPerGPU()) / float64(p.tokens) * microFrac
			meanBytes := int64(scale * float64(p.routed) * float64(perTokenBytes) / float64(p.devices))
			t := cm.AllToAllSkewedUs(meanBytes, p.net)
			// Capacity caps every (source, expert) pair at C tokens, so an
			// irregular exchange can never exceed the padded one on any
			// link; cap at the padded cost to keep the two pricing models
			// consistent.
			padded := cm.ActualInstr(in)
			if t > padded {
				t = padded
			}
			ov.durUs[id] = t + sizeExchange
		}
	}
	return ov, nil
}

func sumf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// proxyKey identifies one routing-proxy computation. The proxy is a pure
// function of these fields (layer and input seeds, proxy token count and
// hidden width are fixed constants), so its result can be shared across
// sessions process-wide.
type proxyKey struct {
	devices, expertsPerGPU, k int
	gate                      model.GateKind
	capacityFactor, skew, hot float64
}

// proxyMemoCap bounds the routing-proxy memo. Every distinct Zipf alpha or
// hot share a process plans adds one entry per partition count it prices;
// planbench's 45 plan-cold shapes use 52.
const proxyMemoCap = 256

// proxyCache memoizes routing proxies across sessions (DESIGN.md §13): a
// cold plan for a (cluster, gate, workload) shape the process has recently
// planned — the common case for pooled serving and the experiment suite —
// skips the functional gate run entirely, and concurrent plans of one
// shape share one run. Workload parameters come from clients, so the memo
// holds at most proxyMemoCap entries and evicts the least recently used;
// a proxy is a pure function of its key, so an eviction costs only a
// recomputation.
var proxyCache = cache.New[proxyKey, *routingProfile](proxyMemoCap)

// proxyRun computes a proxy on a memo miss; tests wrap it to count gate
// runs.
var proxyRun = proxyKey.run

// profile returns the dispatch statistics of the workload split into k
// micro-batches: the even split of wp, a streamed profile packaged by
// syntheticProfile, or, when wp is nil, the functional gate run on a
// scaled-down token batch of the parametric workload (the routing
// distribution depends on token and expert counts, not hidden width),
// memoized process-wide.
func (s *Session) profile(wp *routingProfile, k int) (*routingProfile, error) {
	if s.WorkloadSkew > 0 && s.WorkloadHotExpert > 0 {
		return nil, fmt.Errorf("lancet: WorkloadSkew (%g) and WorkloadHotExpert (%g) are exclusive; set at most one",
			s.WorkloadSkew, s.WorkloadHotExpert)
	}
	if wp != nil {
		return wp.evenSplit(k), nil
	}
	devices := s.Cluster.TotalGPUs()
	if devices > 16 && s.WorkloadSkew <= 0 && s.WorkloadHotExpert <= 0 {
		devices = 16 // balanced routing fractions saturate; keep the proxy cheap
	}
	key := proxyKey{
		devices: devices, expertsPerGPU: s.Config.ExpertsPerGPU, k: k,
		gate:           s.Config.Gate,
		capacityFactor: s.Config.CapacityFactor,
		skew:           s.WorkloadSkew, hot: s.WorkloadHotExpert,
	}
	p, _, err := proxyCache.Do(key, func() (*routingProfile, error) { return proxyRun(key) })
	return p, err
}

// proxyTokens is the routing proxy's batch: tokens per device.
const proxyTokens = 256

// route runs the key's gate functionally over a scaled-down token batch
// of its workload.
func (key proxyKey) route() (*moe.Stats, error) {
	devices, tokens := key.devices, proxyTokens
	experts := devices * key.expertsPerGPU
	capacity := int(float64(tokens*key.gate.TopK()) / float64(experts) * key.capacityFactor)
	if capacity < 1 {
		capacity = 1
	}
	layer, err := moe.NewLayer(moe.Config{
		Devices: devices, ExpertsPerDevice: key.expertsPerGPU,
		Capacity: capacity, Hidden: 16, FFN: 16,
	}, 12345)
	if err != nil {
		return nil, err
	}
	var inputs []*tensor.Tensor
	switch {
	case key.skew > 0:
		inputs = moe.SkewedInputs(layer, tokens, key.skew, 777)
	case key.hot > 0:
		inputs = moe.HotExpertInputs(layer, tokens, key.hot, 777)
	default:
		inputs = makeProxyInputs(devices, tokens, 16)
	}
	_, stats := layer.RouteOnly(inputs, gateFor(key.gate), key.k)
	return stats, nil
}

// run computes the proxy from the gate's dispatch statistics.
func (key proxyKey) run() (*routingProfile, error) {
	stats, err := key.route()
	if err != nil {
		return nil, err
	}
	p := &routingProfile{
		devices: key.devices, tokens: proxyTokens,
		hotExpertShare: stats.HottestExpertShare(),
	}
	for _, row := range stats.SendTokens {
		for _, c := range row {
			p.routed += int64(c)
		}
	}
	if key.skew > 0 || key.hot > 0 {
		np, err := netsim.ProfileFromCounts(stats.SendTokens)
		if err != nil {
			return nil, fmt.Errorf("lancet: routing profile from gate counts: %w", err)
		}
		p.net = np
	}
	padded := float64(stats.PaddedTokensPerDevice)
	for _, row := range stats.MicroSendTokens {
		sum := 0.0
		for _, c := range row {
			sum += float64(c)
		}
		p.shares = append(p.shares, sum/float64(len(row))/padded)
	}
	return p, nil
}

// syntheticProfile packages a streamed routing profile as the dispatch
// statistics the planner and simulator consume, for one micro-batch. The
// streamed histogram carries no micro-batch structure, so a k-way split is
// modeled as k equal shares of the delivered payload each moving the same
// traffic shape (evenSplit); tokens is the histogram's per-device mean,
// which makes the replay scale in irregularOverrides resolve to the
// session's full per-GPU token budget (capped at the padded cost, as
// always).
//
// Capacity applies to streamed traffic exactly as the functional gate
// applies it to proxied batches: each destination absorbs at most its
// uniform share of the padded budget (capacityFactor times the balanced
// split), and tokens routed beyond that are dropped. Over-capacity
// destinations have their columns scaled down to the cap, so the delivered
// shape, the routed volume and the padded-payload shares all mirror what
// RouteOnly reports for a skewed batch — which is what lets the partition
// DP price a drifted profile below the padded ceiling and choose a
// different plan for it.
func syntheticProfile(wp *netsim.RoutingProfile, capacityFactor float64) *routingProfile {
	if capacityFactor <= 0 {
		capacityFactor = 1
	}
	counts64 := wp.Counts()
	devices := wp.Devices()
	offered := int64(0)
	ingress := make([]float64, devices)
	for _, row := range counts64 {
		for j, v := range row {
			offered += v
			ingress[j] += float64(v)
		}
	}
	capPer := float64(offered) * capacityFactor / float64(devices)
	net, routed := wp, offered
	if slices.ContainsFunc(ingress, func(in float64) bool { return in > capPer }) {
		counts := make([][]int, devices)
		routed = 0
		for i, row := range counts64 {
			counts[i] = make([]int, devices)
			for j, v := range row {
				d := float64(v)
				if ingress[j] > capPer {
					d = d * capPer / ingress[j]
				}
				counts[i][j] = int(math.Round(d))
				routed += int64(counts[i][j])
			}
		}
		if np, err := netsim.ProfileFromCounts(counts); err == nil {
			net = np
		}
	}
	tokens := int(offered) / devices
	if tokens < 1 {
		tokens = 1
	}
	// The padded exchange carries capacityFactor times the offered volume;
	// the one share is the delivered fraction of it.
	return &routingProfile{
		devices:        devices,
		tokens:         tokens,
		routed:         routed,
		shares:         []float64{float64(routed) / (float64(offered) * capacityFactor)},
		hotExpertShare: net.MaxIngressShare(),
		net:            net,
	}
}

// evenSplit returns the statistics of p, a one-micro-batch profile from
// syntheticProfile, split into k micro-batches that each carry an equal
// share of its payload.
func (p *routingProfile) evenSplit(k int) *routingProfile {
	if k == 1 {
		return p
	}
	q := *p
	q.shares = make([]float64, k)
	for i := range q.shares {
		q.shares[i] = p.shares[0] / float64(k)
	}
	return &q
}

// makeProxyInputs builds deterministic token batches for the routing proxy.
func makeProxyInputs(devices, tokens, hidden int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(777))
	xs := make([]*tensor.Tensor, devices)
	for d := range xs {
		xs[d] = tensor.Randn(rng, 1, tokens, hidden)
	}
	return xs
}
