package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"lancet"
	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/moe"
	"lancet/internal/netsim"
	"lancet/internal/passes/dwsched"
	"lancet/internal/passes/partition"
	"lancet/internal/tensor"
)

// mirror is the benchmark's own copy of a session the service pools: built
// through the public lancet API from the request's configuration, with the
// cost model the pass replays price against. Replays reuse it the way the
// service reuses its pooled session, so memo warmth matches.
type mirror struct {
	sess *lancet.Session
	cm   *cost.Model
	// frac is the share of the padded all-to-all payload the workload
	// routes: the partition DP's PayloadFraction as Session.Lancet derives
	// it from the routing proxy (parametric skew) or the streamed profile.
	frac float64
}

// mirrorLRU mirrors the service's session pool: same capacity, same
// least-recently-used eviction, keyed the same way (one key per
// configuration shape), so it predicts which requests rebuild their
// session.
type mirrorLRU struct {
	cap   int
	order []int // most recent last
	m     map[int]*mirror
}

func newMirrorLRU(capacity int) *mirrorLRU {
	return &mirrorLRU{cap: capacity, m: make(map[int]*mirror)}
}

// touch marks key used and reports whether the pool already held it.
func (l *mirrorLRU) touch(key int) bool {
	i := slices.Index(l.order, key)
	hit := i >= 0
	if hit {
		l.order = slices.Delete(l.order, i, i+1)
	}
	l.order = append(l.order, key)
	if len(l.order) > l.cap {
		delete(l.m, l.order[0])
		l.order = l.order[1:]
	}
	return hit
}

// gateFor maps a gate kind to the functional gate the routing proxy runs.
func gateFor(k lancet.GateKind) moe.Gate {
	switch k {
	case lancet.GateTop2:
		return moe.Top2Gate{}
	case lancet.GateBatchPriority:
		return moe.BatchPrioritizedGate{}
	case lancet.GateRandom:
		return moe.RandomGate{Seed: 99}
	case lancet.GateHash:
		return moe.HashGate{}
	case lancet.GateExpertChoice:
		return moe.ExpertChoiceGate{}
	}
	return moe.SwitchGate{}
}

// routeProxy runs the routing proxy a session prices parametric routing
// with: the configured gate over a 256-token batch per device, split k
// ways. Balanced routing saturates beyond 16 devices, so the proxy stops
// there.
func routeProxy(cfg lancet.ModelConfig, devices int, skew, hot float64, k int) (*moe.Stats, error) {
	if devices > 16 && skew <= 0 && hot <= 0 {
		devices = 16
	}
	const tokens, width = 256, 16
	capacity := int(float64(tokens*cfg.Gate.TopK()) / float64(devices*cfg.ExpertsPerGPU) * cfg.CapacityFactor)
	capacity = max(capacity, 1)
	layer, err := moe.NewLayer(moe.Config{
		Devices: devices, ExpertsPerDevice: cfg.ExpertsPerGPU,
		Capacity: capacity, Hidden: width, FFN: width,
	}, 12345)
	if err != nil {
		return nil, err
	}
	var inputs []*tensor.Tensor
	switch {
	case skew > 0:
		inputs = moe.SkewedInputs(layer, tokens, skew, 777)
	case hot > 0:
		inputs = moe.HotExpertInputs(layer, tokens, hot, 777)
	default:
		rng := rand.New(rand.NewSource(777))
		inputs = make([]*tensor.Tensor, devices)
		for d := range inputs {
			inputs[d] = tensor.Randn(rng, 1, tokens, width)
		}
	}
	_, stats := layer.RouteOnly(inputs, gateFor(cfg.Gate), k)
	return stats, nil
}

// proxyFraction is the payload share of micro-batch 0 of a one-way proxy
// split: what Session.Lancet passes the partition DP for skewed parametric
// routing.
func proxyFraction(stats *moe.Stats) float64 {
	if len(stats.MicroSendTokens) == 0 {
		return 1
	}
	row := stats.MicroSendTokens[0]
	sum := 0.0
	for _, c := range row {
		sum += float64(c)
	}
	share := sum / float64(len(row)) / float64(stats.PaddedTokensPerDevice)
	if share > 0 && share < 1 {
		return share
	}
	return 1
}

// streamedFraction is the same share for a streamed profile: each
// destination absorbs at most its capacity share of the offered tokens,
// and the DP prices the delivered fraction of the padded exchange.
func streamedFraction(p *netsim.RoutingProfile, capacityFactor float64) float64 {
	if capacityFactor <= 0 {
		capacityFactor = 1
	}
	counts := p.Counts()
	n := len(counts)
	offered := int64(0)
	ingress := make([]float64, n)
	for _, row := range counts {
		for j, v := range row {
			offered += v
			ingress[j] += float64(v)
		}
	}
	capPer := float64(offered) * capacityFactor / float64(n)
	routed := int64(0)
	for _, row := range counts {
		for j, v := range row {
			d := float64(v)
			if ingress[j] > capPer {
				d = d * capPer / ingress[j]
			}
			routed += int64(math.Round(d))
		}
	}
	share := float64(routed) / (float64(offered) * capacityFactor)
	if share > 0 && share < 1 {
		return share
	}
	return 1
}

// replayPlan is one plan to re-run through the layers' public entry points
// after the op that served it returned.
type replayPlan struct {
	op     int
	mir    *mirror
	seed   int64
	tutel  bool
	hinted bool                  // the service planned with hint (a drift re-plan)
	hint   []lancet.PipelineHint // the stale plan's pipelines; nil skips the hinted replay
	served []lancet.PipelineHint // the served result's pipelines, checked against the replay
}

// replay re-runs one plan layer by layer, recording a span per call under
// the op's id: Session.Lancet, then dwsched.Run and partition.Run on the
// graph and options Session.Lancet uses (their ranges must equal the
// plan's pipelines), the hinted DP on the same input, PredictUs and
// Simulate, the tutel baseline, and a cold skew-table build. The pass
// replays are children of the Session.Lancet span, run out of line, so its
// self time is what Session.Lancet spends outside the two passes. It
// returns an error when a replayed layer disagrees with the plan.
func replay(tr *tracer, rp replayPlan) error {
	sess := rp.mir.sess
	opts := lancet.Options{}
	if rp.hinted {
		opts.Hint = rp.hint
	}

	var plan *lancet.Plan
	ls, err := callSession(tr, "lancet.plan", rp.op, 0, sess, func() error {
		var err error
		plan, err = sess.Lancet(opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("Session.Lancet: %w", err)
	}
	tr.annotate(ls.ID, func(s *span) { s.Evals = plan.DPEvaluations })

	// The passes, on exactly the inputs Session.Lancet hands them.
	cfg, built := sess.Config, sess.Built
	var g *ir.Graph
	if _, err := tr.call("dwsched.run", rp.op, ls.ID, func() error {
		res, err := dwsched.Run(built.Graph, rp.mir.cm, dwsched.Options{Strategy: dwsched.BestFit})
		if err == nil {
			g = res.Graph
		}
		return err
	}); err != nil {
		return fmt.Errorf("dwsched.Run: %w", err)
	}
	prof, err := sess.RoutingProfile()
	if err != nil {
		return err
	}
	popts := partition.Options{
		MaxPartitions:    8,
		GroupUs:          autoGroupUs(cfg, built.Graph, rp.mir.cm),
		MaxRangeGroups:   7,
		GatePartialBatch: cfg.Gate.SupportsPartialBatch(),
		Profile:          prof,
		PayloadFraction:  rp.mir.frac,
	}
	coldParent, hintParent := ls.ID, 0
	if rp.hinted {
		coldParent, hintParent = 0, ls.ID
	}
	var ranges []partition.Range
	coldEvals := 0
	for {
		var res *partition.Result
		s, err := tr.call("partition.run", rp.op, coldParent, func() error {
			var err error
			res, err = partition.Run(g, rp.mir.cm, popts)
			return err
		})
		if err != nil {
			return fmt.Errorf("partition.Run: %w", err)
		}
		tr.annotate(s.ID, func(s *span) { s.Evals = res.Evaluations })
		coldEvals = res.Evaluations
		if popts.MaxPartitions <= 2 || fitsMemory(sess, res) {
			ranges = res.Ranges
			break
		}
		popts.MaxPartitions /= 2
	}
	if !samePipelines(ranges, plan.Pipelines) {
		return fmt.Errorf("partition.Run chose %v, Session.Lancet %v", hints(ranges), plan.Pipelines)
	}
	if rp.served != nil && !slices.Equal(plan.Pipelines, rp.served) {
		return fmt.Errorf("replayed plan %v, served %v", plan.Pipelines, rp.served)
	}
	if len(rp.hint) > 0 {
		popts.Hint = make([]partition.Range, len(rp.hint))
		for i, h := range rp.hint {
			popts.Hint[i] = partition.Range{Start: h.Start, End: h.End, K: h.K}
		}
		var res *partition.Result
		s, err := tr.call("partition.hinted_run", rp.op, hintParent, func() error {
			var err error
			res, err = partition.Run(g, rp.mir.cm, popts)
			return err
		})
		if err != nil {
			return fmt.Errorf("hinted partition.Run: %w", err)
		}
		tr.annotate(s.ID, func(s *span) { s.Evals, s.RefEvals = res.Evaluations, coldEvals })
		if !samePipelines(res.Ranges, plan.Pipelines) {
			return fmt.Errorf("hinted partition.Run chose %v, cold %v", hints(res.Ranges), plan.Pipelines)
		}
	}

	if _, err := callSession(tr, "sim.predict", rp.op, 0, sess, func() error {
		_, err := plan.PredictUs()
		return err
	}); err != nil {
		return fmt.Errorf("Plan.PredictUs: %w", err)
	}
	if _, err := callSession(tr, "sim.simulate", rp.op, 0, sess, func() error {
		_, err := plan.Simulate(rp.seed)
		return err
	}); err != nil {
		return fmt.Errorf("Plan.Simulate: %w", err)
	}
	if rp.tutel {
		if _, err := tr.call("baselines.tutel", rp.op, 0, func() error {
			_, err := sess.Baseline(lancet.FrameworkTutel)
			return err
		}); err != nil {
			return fmt.Errorf("Session.Baseline(tutel): %w", err)
		}
	}
	if prof != nil {
		fresh := cost.NewModel(sess.Cluster)
		if _, err := tr.call("cost.skew_table", rp.op, 0, func() error {
			fresh.AllToAllSkewedUs(built.A2ABytes, prof)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// callSession is tracer.call for a call on sess, also recording the
// session cost model's memo hits and lookups during the call.
func callSession(tr *tracer, name string, op, parent int, sess *lancet.Session, fn func() error) (span, error) {
	m0 := sess.CostStats()
	s, err := tr.call(name, op, parent, fn)
	m1 := sess.CostStats()
	tr.annotate(s.ID, func(s *span) {
		s.MemoHits = m1.Hits - m0.Hits
		s.MemoLookups = m1.Hits + m1.Misses - m0.Hits - m0.Misses
	})
	return s, err
}

// autoGroupUs sizes the DP's instruction groups the way Session.Lancet
// does: five groups between consecutive MoE layers of the forward pass.
func autoGroupUs(cfg lancet.ModelConfig, g *ir.Graph, cm *cost.Model) float64 {
	fwd := 0.0
	for _, in := range g.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwd += cm.PredictInstr(in)
	}
	return fwd / float64(5*max(cfg.NumMoELayers(), 1))
}

// fitsMemory is Session.Lancet's staging check: each pipeline
// double-buffers its micro-partitions next to the training footprint.
func fitsMemory(sess *lancet.Session, res *partition.Result) bool {
	var staging int64
	for _, r := range res.Ranges {
		staging += 2 * int64(r.K) * sess.Built.A2ABytes
	}
	return float64(sess.Built.MemoryBytes(model.MemoryCompiled)+staging) <= sess.Cluster.MemBytes()
}

func hints(rs []partition.Range) []lancet.PipelineHint {
	out := make([]lancet.PipelineHint, len(rs))
	for i, r := range rs {
		out[i] = lancet.PipelineHint{Start: r.Start, End: r.End, K: r.K}
	}
	return out
}

func samePipelines(rs []partition.Range, ps []lancet.PipelineHint) bool {
	return slices.Equal(hints(rs), ps)
}
