package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"lancet"
	"lancet/internal/cost"
	"lancet/internal/service"
)

// fleet is one cluster spelling of the plan-cold mix.
type fleet struct {
	cluster  string
	gpus     int
	classes  []service.ClassSpec
	topology *service.TopologySpec
}

// coldShape is one configuration shape: everything that selects a session
// (model, fleet, routing). Requests of one shape differ only in seed.
type coldShape struct {
	model   string
	fleet   fleet
	routing *service.RoutingSpec
}

var (
	coldModels = []string{"gpt2-s", "gpt2-l", "vit-s"}
	coldFleets = []fleet{
		{cluster: "V100", gpus: 16},
		{cluster: "A100", gpus: 32},
		{cluster: "V100", gpus: 64},
		{classes: []service.ClassSpec{{GPU: "A100", Nodes: 2}, {GPU: "V100", Nodes: 2}}},
		{cluster: "V100", gpus: 32, topology: &service.TopologySpec{NodesPerRack: 2, Oversub: 4}}, // 4x oversubscribed spine
	}
	coldRoutings = []*service.RoutingSpec{
		nil, // uniform
		{Kind: service.RoutingZipf, Alpha: 1.2},
		{Kind: service.RoutingHot, HotShare: 0.3},
	}
)

// coldShapes is the full plan-cold mix: every model on every fleet under
// every routing, 45 shapes — more than the service's 32-entry session pool.
func coldShapes() []coldShape {
	var out []coldShape
	for _, m := range coldModels {
		for _, f := range coldFleets {
			for _, r := range coldRoutings {
				out = append(out, coldShape{model: m, fleet: f, routing: r})
			}
		}
	}
	return out
}

func (s coldShape) skewed() bool { return s.routing != nil }

// request is the /v1/plan body for one (shape, seed) key; tutel attaches
// the default baseline, otherwise it is disabled.
func (s coldShape) request(seed int64, tutel bool) service.PlanRequest {
	req := service.PlanRequest{
		Model: s.model, Cluster: s.fleet.cluster, GPUs: s.fleet.gpus, Classes: s.fleet.classes,
		Topology: s.fleet.topology, Routing: s.routing, Seed: &seed,
	}
	if !tutel {
		req.Baseline = service.BaselineNone
	}
	return req
}

// session builds the shape's session from scratch through the public
// lancet API, independently of the service's request canonicalization.
func (s coldShape) session() (*lancet.Session, error) {
	cfg, err := lancet.ParseModel(s.model, 0)
	if err != nil {
		return nil, err
	}
	var cl lancet.Cluster
	if len(s.fleet.classes) > 0 {
		var classes []lancet.NodeClass
		for _, c := range s.fleet.classes {
			nc, err := lancet.ClassForGPU(c.GPU, c.Nodes)
			if err != nil {
				return nil, err
			}
			classes = append(classes, nc)
		}
		cl, err = lancet.NewHeteroCluster(classes...)
	} else {
		cl, err = lancet.NewCluster(s.fleet.cluster, s.fleet.gpus)
	}
	if err != nil {
		return nil, err
	}
	if t := s.fleet.topology; t != nil {
		topo := lancet.Topology{NodesPerRack: t.NodesPerRack, Oversubscription: t.Oversub, SpineShare: t.SpineShare}
		if cl, err = cl.WithTopology(topo.DefaultRacks()); err != nil {
			return nil, err
		}
	}
	sess, err := lancet.NewSession(cfg, cl)
	if err != nil {
		return nil, err
	}
	if s.routing != nil {
		switch s.routing.Kind {
		case service.RoutingZipf:
			sess.WorkloadSkew = s.routing.Alpha
		case service.RoutingHot:
			sess.WorkloadHotExpert = s.routing.HotShare
		}
	}
	return sess, nil
}

// coldOp is one measured plan-cold request: a new (shape, seed) key.
type coldOp struct {
	shape int
	seed  int64
	tutel bool
}

// coldOps generates the first n measured ops of the seeded sequence.
// Every block of len(shapes) ops visits each shape once in a seeded order,
// so the mix of shapes, and of requests carrying the tutel baseline (each
// shape carries it in every other block), is the same for every seed;
// only the order and the simulation seeds change.
func coldOps(seed int64, shapes, n int) []coldOp {
	ops := make([]coldOp, 0, n)
	var perm []int
	block := -1
	for i := range n {
		if b := i / shapes; b != block {
			block = b
			perm = rand.New(rand.NewSource(seed*1_000_003 + int64(b))).Perm(shapes)
		}
		s := perm[i%shapes]
		ops = append(ops, coldOp{shape: s, seed: keySeed(seed, i), tutel: (s+block)%2 == 0})
	}
	return ops
}

// keySeed is the simulation seed of measured op i: distinct per op, so
// every request is a new plan-store key, and distinct per workload seed.
func keySeed(seed int64, i int) int64 { return (seed%1_000_000)*10_000_000 + int64(i) + 1 }

// setupSeed is the seed set-up plans every shape with; no measured op
// uses it.
func setupSeed(seed int64) int64 { return (seed % 1_000_000) * 10_000_000 }

// coldWorkload is plan-cold: one client, every request a plan-store miss
// that runs session lookup or build, dwsched, the partition DP, rewrite,
// simulate and encode, and stores its result in the memory tier.
type coldWorkload struct {
	shapes []coldShape
	sample int // ops whose outputs the check recomputes

	pool   *mirrorLRU              // predicts session-pool misses
	stale  [][]lancet.PipelineHint // per shape: the set-up plan's pipelines, the hinted replay's stale plan
	fracs  map[int]float64         // per skewed shape: the proxy's payload fraction
	kept   map[int]coldKept        // sampled ops' responses
	checks []int                   // sampled op indexes
}

type coldKept struct {
	op   coldOp
	body []byte
}

func newColdWorkload(small bool) *coldWorkload {
	w := &coldWorkload{shapes: coldShapes(), sample: 24}
	if small {
		// One gpt2-s shape per routing kind: the probe a traced run of
		// another workload uses for layers that workload bypasses.
		w.shapes, w.sample = []coldShape{w.shapes[0], w.shapes[1], w.shapes[2]}, 2
	}
	return w
}

func (w *coldWorkload) name() string { return "plan-cold" }

func (w *coldWorkload) clients() int { return 1 }

// setUp opens a memory-only service and plans every shape once, so routing
// proxies and the tutel path are warm as in a long-lived server. There is
// no disk tier: it would fsync each miss's artifact inside the request, and
// on a shared host fsync time follows the neighbours' I/O.
func (w *coldWorkload) setUp(b *bench) error {
	if err := b.open(service.Config{}, ""); err != nil {
		return err
	}
	w.pool = newMirrorLRU(32)
	w.stale = make([][]lancet.PipelineHint, len(w.shapes))
	w.fracs = make(map[int]float64)
	rec := newRecorder()
	for s, sh := range w.shapes {
		body, err := json.Marshal(sh.request(setupSeed(b.seed), true))
		if err != nil {
			return err
		}
		start, lat, err := b.serve(rec, "/v1/plan", body)
		if err != nil {
			return err
		}
		if rec.code != 200 {
			return fmt.Errorf("set-up plan of shape %d: status %d: %s", s, rec.code, rec.body.String())
		}
		b.rootSpan(-1, "/v1/plan", rec.hdr.Get("X-Lancet-Cache"), start, lat)
		pipes, err := servedPipelines(rec.body.Bytes())
		if err != nil {
			return err
		}
		w.stale[s] = pipes
		w.pool.touch(s)
		if b.tr != nil {
			if err := w.traceProxy(b, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceProxy times the routing proxies one shape's plan needs (the
// functional gate run, once per partition count it uses) as a moe.proxy
// span.
func (w *coldWorkload) traceProxy(b *bench, s int) error {
	sess, err := w.shapes[s].session()
	if err != nil {
		return err
	}
	ks := []int{1}
	for _, p := range w.stale[s] {
		if !slices.Contains(ks, p.K) {
			ks = append(ks, p.K)
		}
	}
	_, err = b.tr.call("moe.proxy", -1, 0, func() error {
		for _, k := range ks {
			if _, err := routeProxy(sess.Config, sess.Cluster.TotalGPUs(), sess.WorkloadSkew, sess.WorkloadHotExpert, k); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// measure runs n measured ops. With tracing, ops in odd blocks of
// len(shapes) get root spans and layer replays, outside their timing.
func (w *coldWorkload) measure(b *bench, n int, p *phase) {
	ops := coldOps(b.seed, len(w.shapes), n)
	// A fixed, seeded sample of ops whose outputs the check recomputes.
	w.kept = make(map[int]coldKept)
	want := make(map[int]bool)
	for _, i := range rand.New(rand.NewSource(b.seed)).Perm(n)[:min(w.sample, n)] {
		w.checks = append(w.checks, i)
		want[i] = true
	}
	rec := newRecorder()
	prev := b.svc.Stats()
	for i, op := range ops {
		if p.expired() {
			break
		}
		t0 := time.Now()
		traced := b.tr != nil && (i/len(w.shapes))%2 == 1
		sh := w.shapes[op.shape]
		body, err := json.Marshal(sh.request(op.seed, op.tutel))
		if err != nil {
			b.fail("op %d: %v", i, err)
			continue
		}
		start, lat, err := b.serve(rec, "/v1/plan", body)
		if err != nil {
			b.fail("op %d: %v", i, err)
			continue
		}
		p.record(lat, traced)
		state := rec.hdr.Get("X-Lancet-Cache")
		p.props["cache="+state]++
		poolMiss := !w.pool.touch(op.shape)
		if poolMiss {
			p.props["session_pool_miss"]++
		}
		p.clientMisses++
		if op.tutel {
			p.props["baseline_attached"]++
			p.clientMisses++
		}
		if sh.skewed() {
			p.props["skewed_routing"]++
		}
		if rec.code != 200 {
			b.fail("op %d: status %d: %s", i, rec.code, rec.body.String())
			continue
		}
		if state != "miss" {
			b.fail("op %d: cache state %q, want miss (every measured key is new)", i, state)
		}
		// Outside the op's timing: the op must have run the DP.
		cur := b.svc.Stats()
		wantComp := int64(1)
		if op.tutel {
			wantComp = 2
		}
		if cur.Computations-prev.Computations != wantComp || cur.DPEvaluations <= prev.DPEvaluations {
			b.fail("op %d: computations +%d (want +%d), dp_evaluations +%d (want > 0)",
				i, cur.Computations-prev.Computations, wantComp, cur.DPEvaluations-prev.DPEvaluations)
		}
		prev = cur
		if want[i] {
			w.kept[i] = coldKept{op: op, body: bytes.Clone(rec.body.Bytes())}
		}
		var rd time.Duration
		if traced {
			rs := time.Now()
			b.rootSpan(i, "/v1/plan", state, start, lat)
			if err := w.replay(b, i, op, poolMiss, rec.body.Bytes()); err != nil {
				b.fail("op %d: replay: %v", i, err)
			}
			rd = time.Since(rs)
		}
		p.cycled(traced, time.Since(t0)-rd)
	}
}

// replay re-runs a missed plan layer by layer on the benchmark's mirror of
// the service's pooled session.
func (w *coldWorkload) replay(b *bench, i int, op coldOp, poolMiss bool, body []byte) error {
	served, err := servedPipelines(body)
	if err != nil {
		return err
	}
	mir, err := w.mirror(b, i, op.shape, poolMiss)
	if err != nil {
		return err
	}
	return replay(b.tr, replayPlan{op: i, mir: mir, seed: op.seed, tutel: op.tutel,
		hint: w.stale[op.shape], served: served})
}

// mirror returns the benchmark's session for a shape. A build is a
// model.build span only when the service's pool missed too; otherwise it
// just catches the mirror up with a session the service already pooled.
func (w *coldWorkload) mirror(b *bench, i, s int, poolMiss bool) (*mirror, error) {
	if m := w.pool.m[s]; m != nil {
		return m, nil
	}
	sh := w.shapes[s]
	var sess *lancet.Session
	build := func() error {
		var err error
		sess, err = sh.session()
		return err
	}
	var err error
	if poolMiss {
		_, err = b.tr.call("model.build", i, 0, build)
	} else {
		err = build()
	}
	if err != nil {
		return nil, err
	}
	frac, ok := w.fracs[s]
	if !ok {
		frac = 1
		if sh.skewed() {
			stats, err := routeProxy(sess.Config, sess.Cluster.TotalGPUs(), sess.WorkloadSkew, sess.WorkloadHotExpert, 1)
			if err != nil {
				return nil, err
			}
			frac = proxyFraction(stats)
		}
		w.fracs[s] = frac
	}
	m := &mirror{sess: sess, cm: cost.NewModel(sess.Cluster), frac: frac}
	w.pool.m[s] = m
	return m, nil
}

// verify checks the client's tallies against /v1/stats: every measured op
// missed the plan store and ran its computations, nothing was shared.
func (w *coldWorkload) verify(b *bench, before, after service.StatsResponse, p *phase) {
	d := statsDelta(before, after)
	p.stats = d
	misses, comps := d.misses, d.computations
	if misses != p.clientMisses || comps != p.clientMisses {
		b.problem("plan-cold: client saw %d misses, /v1/stats counted %d misses and %d computations", p.clientMisses, misses, comps)
	}
	if hits := d.memoryHits + d.diskHits; hits != 0 {
		b.problem("plan-cold: %d plan-store hits during the measured phase, want 0", hits)
	}
	if p.props["cache=miss"] != p.ops {
		b.problem("plan-cold: %d of %d ops were misses", p.props["cache=miss"], p.ops)
	}
}

// check recomputes the sampled ops' results with service.Compute on
// sessions built from scratch, and re-requests them: the memory tier, or a
// recompute once the tier has evicted the key, must serve the same bytes.
func (w *coldWorkload) check(b *bench) {
	rec := newRecorder()
	for _, i := range w.checks {
		k, ok := w.kept[i]
		if !ok {
			continue // the phase ended before this op
		}
		var resp struct {
			Result   json.RawMessage `json:"result"`
			Baseline json.RawMessage `json:"baseline"`
		}
		if err := json.Unmarshal(k.body, &resp); err != nil {
			b.fail("check op %d: %v", i, err)
			continue
		}
		sess, err := w.shapes[k.op.shape].session()
		if err != nil {
			b.fail("check op %d: %v", i, err)
			continue
		}
		if err := sameAsCompute(sess, lancet.FrameworkLancet, k.op.seed, resp.Result); err != nil {
			b.fail("check op %d: %v", i, err)
		}
		if k.op.tutel {
			if err := sameAsCompute(sess, lancet.FrameworkTutel, k.op.seed, resp.Baseline); err != nil {
				b.fail("check op %d: %v", i, err)
			}
		} else if len(resp.Baseline) != 0 {
			b.fail("check op %d: baseline served for a request that disabled it", i)
		}
		body, err := json.Marshal(w.shapes[k.op.shape].request(k.op.seed, k.op.tutel))
		if err != nil {
			b.fail("check op %d: %v", i, err)
			continue
		}
		if _, _, err := b.serve(rec, "/v1/plan", body); err != nil {
			b.fail("check op %d: %v", i, err)
			continue
		}
		state := rec.hdr.Get("X-Lancet-Cache")
		if state != "hit" && state != "miss" {
			b.fail("check op %d: re-request cache state %q, want hit or miss", i, state)
		}
		if !bytes.Equal(rec.body.Bytes(), k.body) {
			b.fail("check op %d: %s re-request body differs from the miss that stored it", i, state)
		}
	}
}

// sameAsCompute recomputes one framework's result and compares it with
// the served JSON byte for byte.
func sameAsCompute(sess *lancet.Session, fw string, seed int64, served json.RawMessage) error {
	res, err := service.Compute(sess, fw, seed, lancet.Options{})
	if err != nil {
		return fmt.Errorf("recompute %s: %w", fw, err)
	}
	want, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	if !bytes.Equal(compactJSON(served), want) {
		return fmt.Errorf("served %s result differs from service.Compute on a fresh session:\n served %s\n  fresh %s", fw, compactJSON(served), want)
	}
	return nil
}

// servedPipelines decodes the lancet result's pipelines from a /v1/plan
// response body.
func servedPipelines(body []byte) ([]lancet.PipelineHint, error) {
	var resp struct {
		Result struct {
			Pipelines []lancet.PipelineHint `json:"pipelines"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return resp.Result.Pipelines, nil
}
