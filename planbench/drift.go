package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lancet"
	"lancet/internal/cost"
	"lancet/internal/netsim"
	"lancet/internal/service"
)

// The drift loop's tuning for drift-replan: a re-plan once the decayed
// traffic moved 0.05 in normalized L1 from the live plan's profile, with an
// update's weight halving every 4 updates. With the walk below, 20–40% of
// updates re-plan, so the p90 sits inside the re-plan mode instead of on
// the cliff between ingest and re-plan.
const (
	driftThreshold = 0.05
	driftHalfLife  = 4
)

// The Zipf exponent's walk: persistent (the direction flips with
// probability driftFlip per update), steps of driftStep times U(0.5, 1.5),
// reflected into [driftLo, driftHi]. A random walk, not a periodic one: a
// periodic walk revisits shapes, and re-plans turn into plan-store hits.
const (
	driftStep = 0.08
	driftFlip = 0.15
	driftLo   = 0.3
	driftHi   = 1.6
)

// driftJob is one training job streaming gate counts: its configuration,
// the walk's state, and the benchmark's mirror of the service's decayed
// profile, which predicts every drift decision the service makes.
type driftJob struct {
	shape coldShape // model and fleet; routing is the streamed counts
	gpus  int

	alpha, dir float64
	acc        *netsim.DecayedProfile
	live       *netsim.RoutingProfile // the profile of the plan being served
	mir        *mirror                // traced replays only
	mirProf    *netsim.RoutingProfile // the profile installed on mir

	pending int // index into samples awaiting its landed plan, or -1
}

// driftSample is a landed re-plan the check recomputes.
type driftSample struct {
	job     int
	profile *netsim.RoutingProfile
	landed  []byte
}

// driftWorkload is drift-replan: one client streams /v1/routing updates
// for a few 32-GPU jobs to a memory-only service; an update that triggers
// a re-plan lasts until the re-plan has landed.
type driftWorkload struct {
	fleets []fleet
	warm   int // warm-up updates per job, part of set-up
	every  int // every n-th measured re-plan is recomputed by the check

	jobs    []*driftJob
	rng     *rand.Rand
	samples []driftSample
	replans int // measured re-plans so far
}

// The jobs: GPT2-S on three 32-GPU fleets. One GPU count keeps the ingest
// cost (decoding a 32x32 count matrix) unimodal, so p50 sits inside it.
var driftFleets = []fleet{coldFleets[1],
	{cluster: "V100", gpus: 32},
	coldFleets[3],
}

func newDriftWorkload(small bool) *driftWorkload {
	if small {
		return &driftWorkload{fleets: driftFleets[:1], warm: 10, every: 8}
	}
	return &driftWorkload{fleets: driftFleets, warm: 100, every: 32}
}

func (w *driftWorkload) name() string { return "drift-replan" }

func (w *driftWorkload) clients() int { return 1 }

// setUp opens a memory-only service (a disk tier would fsync every
// re-plan, as on plan-cold) and streams each job's warm-up prefix; the
// first update of a job computes its initial plan synchronously.
func (w *driftWorkload) setUp(b *bench) error {
	if err := b.open(service.Config{DriftThreshold: driftThreshold, DecayHalfLife: driftHalfLife}, ""); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(b.seed))
	w.jobs = nil
	for _, f := range w.fleets {
		w.jobs = append(w.jobs, &driftJob{
			shape: coldShape{model: "gpt2-s", fleet: f},
			gpus:  32,
			alpha: driftLo + (driftHi-driftLo)*w.rng.Float64(),
			dir:   1,
			acc:   netsim.NewDecayedProfile(driftHalfLife),
		})
	}
	w.samples, w.replans = nil, 0
	for _, j := range w.jobs {
		j.pending = -1
	}
	rec := newRecorder()
	for i := 0; i < w.warm*len(w.jobs); i++ {
		if err := w.update(b, rec, i, nil); err != nil {
			return fmt.Errorf("warm-up update %d: %w", i, err)
		}
	}
	return nil
}

// counts advances job j's walk one step and returns its gate counts.
func (w *driftWorkload) counts(j *driftJob) [][]int64 {
	if w.rng.Float64() < driftFlip {
		j.dir = -j.dir
	}
	j.alpha += j.dir * driftStep * (0.5 + w.rng.Float64())
	switch {
	case j.alpha > driftHi:
		j.alpha, j.dir = 2*driftHi-j.alpha, -1
	case j.alpha < driftLo:
		j.alpha, j.dir = 2*driftLo-j.alpha, 1
	}
	return netsim.ZipfProfile(j.gpus, j.alpha).Counts()
}

// update sends the next gate-count update of the round-robin stream. When
// the service reports a triggered re-plan the op lasts until Stats shows
// it landed, so the number of re-plans is fixed by the seed. p is nil
// during set-up.
func (w *driftWorkload) update(b *bench, rec *recorder, i int, p *phase) error {
	j := w.jobs[i%len(w.jobs)]
	t0 := time.Now()
	traced := p != nil && b.tr != nil && (i/(10*len(w.jobs)))%2 == 1
	counts := w.counts(j)
	body, err := json.Marshal(service.RoutingUpdate{Plan: j.shape.request(1, false), Counts: counts})
	if err != nil {
		return err
	}
	// The mirror decides what the service must decide (outside the op).
	var cur *netsim.RoutingProfile
	dist := 2.0
	ingest := func() error {
		if err := j.acc.Ingest(counts); err != nil {
			return err
		}
		var err error
		if cur, err = j.acc.Snapshot(); err != nil {
			return err
		}
		dist = cur.L1Distance(j.live)
		return nil
	}
	if traced {
		_, err = b.tr.call("netsim.ingest", i, 0, ingest)
	} else {
		err = ingest()
	}
	if err != nil {
		return fmt.Errorf("mirror ingest: %w", err)
	}
	expect := j.live != nil && cur.Fingerprint() != j.live.Fingerprint() && dist > driftThreshold
	before := b.svc.Stats().Drift

	start, lat, err := b.serve(rec, "/v1/routing", body)
	if err != nil {
		return err
	}
	if rec.code != 200 {
		return fmt.Errorf("status %d: %s", rec.code, rec.body.String())
	}
	var resp service.RoutingResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	replanned := resp.Drift.Detected
	var wait time.Duration
	if replanned {
		respAt := time.Now()
		if err := w.awaitReplan(b, before); err != nil {
			return err
		}
		wait = time.Since(respAt)
	}
	if resp.Drift.Detected != expect {
		return fmt.Errorf("service detected drift %t, mirror predicted %t (distance %.4f)", resp.Drift.Detected, expect, resp.Drift.Distance)
	}
	if resp.Drift.Updates != j.acc.Updates() {
		return fmt.Errorf("service counted %d updates, mirror %d", resp.Drift.Updates, j.acc.Updates())
	}
	if j.live == nil || replanned {
		// The first update computed the initial plan inside the call; a
		// re-plan has landed. Either way the live plan is priced for cur.
		j.live = cur
	}
	if j.pending >= 0 {
		w.samples[j.pending].landed = compactJSON(resp.Result)
		j.pending = -1
	}
	if p == nil {
		return nil
	}

	p.record(lat+wait, traced)
	if replanned {
		p.props["replan"]++
		p.replans++
		if w.replans%w.every == 0 {
			w.samples = append(w.samples, driftSample{job: i % len(w.jobs), profile: cur})
			j.pending = len(w.samples) - 1
		}
		w.replans++
	}
	p.props["skewed_routing"]++
	var rd time.Duration
	if traced {
		rs := time.Now()
		cache := "ingest"
		if replanned {
			cache = "replan"
		}
		b.rootSpan(i, "/v1/routing", cache, start, lat)
		if replanned {
			s := int64(start.Sub(b.tr.epoch)) + int64(lat)
			b.tr.add(span{Name: "service.replan_wait", Op: i, Start: s, End: s + int64(wait)})
			// The response carries the plan that was live when the update
			// arrived: the stale plan whose pipelines hinted the re-plan.
			if err := w.replay(b, i, j, cur, resp.Result); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		rd = time.Since(rs)
	}
	p.cycled(traced, time.Since(t0)-rd)
	return nil
}

// awaitReplan polls Stats until the triggered re-plan has landed (or
// failed), yielding the P between polls. It does not sleep: an idle P
// blocks a sub-millisecond time.Sleep in epoll_wait for a whole
// millisecond. On landing it yields once more, so that on one P the
// re-plan's goroutine clears the session's in-flight flag before the
// job's next update can detect drift again.
func (w *driftWorkload) awaitReplan(b *bench, before service.DriftStats) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := b.svc.Stats().Drift
		if d.Replans+d.ReplanErrors > before.Replans+before.ReplanErrors {
			runtime.Gosched()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("triggered re-plan did not land within 10s")
		}
		runtime.Gosched()
	}
}

// replay re-runs a drift re-plan layer by layer on the job's mirror
// session, given the profile the service re-planned for and the stale
// plan's pipelines as the hint the service used.
func (w *driftWorkload) replay(b *bench, i int, j *driftJob, cur *netsim.RoutingProfile, stale json.RawMessage) error {
	var res struct {
		Pipelines []lancet.PipelineHint `json:"pipelines"`
	}
	if err := json.Unmarshal(stale, &res); err != nil {
		return err
	}
	if j.mir == nil {
		var sess *lancet.Session
		if _, err := b.tr.call("model.build", i, 0, func() error {
			var err error
			sess, err = j.shape.session()
			return err
		}); err != nil {
			return err
		}
		j.mir = &mirror{sess: sess, cm: cost.NewModel(sess.Cluster)}
	}
	if err := j.mir.sess.SetWorkloadProfile(cur); err != nil {
		return err
	}
	if j.mirProf != nil {
		// As SetWorkloadProfile does for the session's own model.
		j.mir.cm.InvalidateProfile(j.mirProf.Fingerprint())
	}
	j.mirProf = cur
	j.mir.frac = streamedFraction(cur, j.mir.sess.Config.CapacityFactor)
	return replay(b.tr, replayPlan{op: i, mir: j.mir, seed: 1, hinted: true, hint: res.Pipelines})
}

// measure streams n measured updates, continuing the warm-up's stream.
func (w *driftWorkload) measure(b *bench, n int, p *phase) {
	rec := newRecorder()
	for i := range n {
		if p.expired() {
			return
		}
		if err := w.update(b, rec, w.warm*len(w.jobs)+i, p); err != nil {
			b.fail("update %d: %v", i, err)
		}
	}
}

// verify checks the tallies against /v1/stats: every update was ingested,
// every detection triggered exactly one re-plan the client waited for,
// and none failed.
func (w *driftWorkload) verify(b *bench, before, after service.StatsResponse, p *phase) {
	d := statsDelta(before, after)
	if d.updates != int64(p.ops) || d.replans != p.replans || d.detected != p.replans {
		b.problem("drift-replan: client sent %d updates and saw %d re-plans; /v1/stats counted %d updates, %d detections, %d re-plans",
			p.ops, p.replans, d.updates, d.detected, d.replans)
	}
	if after.Drift.ReplanErrors != 0 {
		b.problem("drift-replan: %d re-plans failed", after.Drift.ReplanErrors)
	}
	p.stats = d
}

// check recomputes every sampled landed plan with service.Compute on a
// fresh session given the mirrored snapshot the re-plan was made for.
func (w *driftWorkload) check(b *bench) {
	for n, s := range w.samples {
		if s.landed == nil {
			continue // no later response of the job carried it
		}
		sess, err := w.jobs[s.job].shape.session()
		if err == nil {
			err = sess.SetWorkloadProfile(s.profile)
		}
		if err != nil {
			b.fail("check re-plan sample %d: %v", n, err)
			continue
		}
		res, err := service.Compute(sess, lancet.FrameworkLancet, 1, lancet.Options{})
		if err != nil {
			b.fail("check re-plan sample %d: %v", n, err)
			continue
		}
		want, err := json.Marshal(&res)
		if err != nil {
			b.fail("check re-plan sample %d: %v", n, err)
			continue
		}
		if !bytes.Equal(s.landed, want) {
			b.fail("check re-plan sample %d: landed plan differs from a fresh recompute:\n landed %s\n  fresh %s", n, s.landed, want)
		}
	}
}
