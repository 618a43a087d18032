// Command planbench is the end-to-end benchmark of the plan service. It
// drives the in-process handler lancet-serve mounts through one of three
// closed-loop workloads, checks every output, and prints the end-to-end
// metrics, with timings scaled to a reference speed (calib.go); with
// --trace 1 it instead times the calls into each layer's public entry
// points and prints a per-layer breakdown. README.md defines every metric
// and workload.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash planbench/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"lancet/internal/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one closed-loop traffic mix.
type workload interface {
	name() string
	// clients is how many client goroutines the measured phase runs, and
	// so how many Ps (GOMAXPROCS) it runs with.
	clients() int
	// setUp opens a fresh service and brings it to the state the measured
	// phase starts from.
	setUp(b *bench) error
	// measure runs the first n measured ops of the seeded sequence.
	measure(b *bench, n int, p *phase)
	// verify checks the client's tallies against /v1/stats.
	verify(b *bench, before, after service.StatsResponse, p *phase)
	// check verifies outputs after the timed phase, outside the timing.
	check(b *bench)
}

// workloadNames in the order BENCHMARK.json lists them.
var workloadNames = []string{"plan-cold", "plan-hot", "drift-replan"}

func newWorkload(name string, small bool) workload {
	switch name {
	case "plan-cold":
		return newColdWorkload(small)
	case "plan-hot":
		return newHotWorkload(small)
	case "drift-replan":
		return newDriftWorkload(small)
	}
	return nil
}

// opsPerSecond sizes a workload's measured phase: --seconds times this
// many ops, about what this commit completes per second on a 2-vCPU VM.
// The op count is fixed, not the duration, so the count of every op kind
// (misses, re-plans) depends on the seed alone, never on timing.
var opsPerSecond = map[string]int{"plan-cold": 63, "plan-hot": 35000, "drift-replan": 300}

// probeOps sizes the small runs a traced run makes of the other workloads
// to cover layers its own workload bypasses.
var probeOps = map[string]int{"plan-cold": 6, "plan-hot": 400, "drift-replan": 60}

const (
	// setupRuns is how many times a timed run sets up; setup_s is the
	// median. Routing proxies are cached process-wide, so the first set-up
	// of plan-cold is slower than the rest and the median skips it.
	setupRuns = 3
	// budget bounds a run from its start: a measured phase still running
	// then stops early (and fails the run) rather than let the process
	// outlive it.
	budget = 150 * time.Second
	// rssInterval is the resident-set sampling period.
	rssInterval = 20 * time.Millisecond
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan-cold, plan-hot or drift-replan")
	seed := fs.Int64("seed", 1, "workload seed; the service sees only the requests generated from it")
	seconds := fs.Int("seconds", 10, "nominal measured-phase length; sizes the fixed op count")
	traceOn := fs.Int("trace", 0, "1: a traced run reporting per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for plan stores and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if newWorkload(*name, false) == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "planbench: need --workload (one of %v), --seconds >= 1 and --trace 0 or 1\n", workloadNames)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	// Set-ups and output checks run on one P; measured gives a measured
	// phase one P per client.
	runtime.GOMAXPROCS(1)
	b := &bench{seed: *seed, work: work, deadline: time.Now().Add(budget)}
	n := *seconds * opsPerSecond[*name]
	var res result
	if *traceOn == 1 {
		b.tr = newTracer()
		res, err = traced(b, *name, n, stdout, filepath.Join(*workDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)))
	} else {
		res, err = timed(b, *name, n, stdout)
	}
	b.closeService()
	if err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintln(stderr, "planbench: FAIL:", f)
	}
	res.Failed = b.failed
	res.Correct = len(b.failures) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measured is one measured phase: set-up done, run n ops with one P per
// client and the RSS sampler on, then verify traffic and check outputs.
// With no P beyond its clients, a workload never hands work to an idle
// vCPU, whose wake-up on a shared host waits on the host's scheduler. A
// non-nil ref is sampled refSamples times, evenly over the first client's
// ops, outside the ops' timing; the kernel runs are left out of the
// phase's wall time.
func measured(b *bench, w workload, n int, ref *refKernel) (*phase, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.clients()))
	runtime.GC()
	p := newPhase(b.deadline)
	p.ref, p.refEvery = ref, max(n/w.clients()/refSamples, 1)
	before := b.svc.Stats()
	rss := startRSS(rssInterval)
	start := time.Now()
	w.measure(b, n, p)
	p.wall = time.Since(start) - p.refTime
	mb, err := rss.finish()
	if err != nil {
		return nil, fmt.Errorf("sampling RSS: %w", err)
	}
	p.rssMB = mb
	if p.ops < n {
		b.problem("%s: the measured phase ran out of its %v budget after %d of %d ops", w.name(), budget, p.ops, n)
	}
	w.verify(b, before, b.svc.Stats(), p)
	w.check(b)
	return p, nil
}

// timed is a run with tracing off: set up setupRuns times, measure once,
// report every end-to-end metric.
func timed(b *bench, name string, n int, out io.Writer) (result, error) {
	w := newWorkload(name, false)
	var setups []float64
	for range setupRuns {
		b.closeService()
		start := time.Now()
		if err := w.setUp(b); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p, err := measured(b, w, n, newRefKernel())
	if err != nil {
		return result{}, err
	}
	if len(p.refs) == 0 {
		return result{}, fmt.Errorf("%s: the measured phase took no reference samples", name)
	}
	lat := durationsMs(p.latencies())
	rss := append([]float64(nil), p.rssMB...)
	sort.Float64s(rss)
	raw := map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      float64(p.ops) / p.wall.Seconds(),
		"latency_p50_ms": nearestRank(lat, 0.5),
		"latency_p90_ms": nearestRank(lat, 0.9),
	}
	// Timings are scaled to the reference speed (calib.go); RSS is not.
	refMs := durationsMs(p.refs)
	nominalMs := float64(refNominal) / float64(time.Millisecond)
	scale := nominalMs / median(refMs)
	vals := map[string]float64{
		"setup_s":        raw["setup_s"] * scale,
		"ops_per_s":      raw["ops_per_s"] / scale,
		"latency_p50_ms": raw["latency_p50_ms"] * scale,
		"latency_p90_ms": raw["latency_p90_ms"] * scale,
		"rss_p90_mb":     nearestRank(rss, 0.9),
	}
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("raw %.4f, median of %d set-ups: %.3f", raw["setup_s"], len(setups), setups),
		"ops_per_s":      fmt.Sprintf("raw %.4f", raw["ops_per_s"]),
		"latency_p50_ms": fmt.Sprintf("raw %.4f, n=%d ops", raw["latency_p50_ms"], len(lat)),
		"latency_p90_ms": fmt.Sprintf("raw %.4f, n=%d ops", raw["latency_p90_ms"], len(lat)),
		"rss_p90_mb":     fmt.Sprintf("n=%d samples every %v, not scaled", len(rss), rssInterval),
	}
	fmt.Fprintf(out, "workload %s, seed %d: %d ops in %.2fs (closed loop)\n", name, b.seed, p.ops, p.wall.Seconds())
	fmt.Fprintf(out, "  reference kernel: median %.4f ms of %d samples %.3f; timings scaled by %.3f/%.4f = %.4f\n",
		median(refMs), len(refMs), refMs, nominalMs, median(refMs), scale)
	m := make(map[string]metric, len(endToEndSpecs))
	for _, ms := range endToEndSpecs {
		m[ms.name] = metric{vals[ms.name], ms.unit}
		fmt.Fprintf(out, "  %-16s %14.4f %-4s %s\n", ms.name, vals[ms.name], ms.unit, notes[ms.name])
	}
	printProps(out, p)
	return result{Attempted: max(p.ops, 1), Metrics: m}, nil
}

// printProps prints, with its base, the share of ops having each property
// an optimization might target.
func printProps(out io.Writer, p *phase) {
	props := []string{"cache=miss", "cache=hit", "cache=disk", "cache=shared", "session_pool_miss", "baseline_attached", "skewed_routing", "replan"}
	fmt.Fprintf(out, "  op properties (base: %d ops):\n", p.ops)
	for _, k := range props {
		c := p.props[k]
		fmt.Fprintf(out, "    %-18s %7d  %6.2f%%\n", k, c, 100*share(float64(c), float64(p.ops)))
	}
}

// traced is a run with tracing on: one set-up, a measured phase whose ops
// alternate in blocks between untraced and traced (each traced op also
// replays its plan layer by layer, outside its timing), then small probe
// runs of the other workloads for layers this one bypasses.
func traced(b *bench, name string, n int, out io.Writer, spansPath string) (result, error) {
	w := newWorkload(name, false)
	if err := w.setUp(b); err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", name, err)
	}
	p, err := measured(b, w, n, nil)
	if err != nil {
		return result{}, err
	}
	b.closeService()
	spans := b.tr.snapshot()
	printLayerTable(out, name, layerTable(spans))
	vals := layerValues(spans, p)
	// The overhead ratio compares the phase's own traced and untraced ops.
	if p.cyc[0] > 0 && p.cyc[1] > 0 {
		vals["trace.overhead_ratio"] = (float64(len(p.lat[1])) / p.cyc[1].Seconds()) / (float64(len(p.lat[0])) / p.cyc[0].Seconds())
	}
	src := make(map[string]string)
	for k := range vals {
		src[k] = name
	}
	for _, other := range workloadNames {
		if other == name || len(vals) == len(layerSpecs) {
			continue
		}
		mark := len(b.tr.snapshot())
		pw := newWorkload(other, true)
		if err := pw.setUp(b); err != nil {
			return result{}, fmt.Errorf("%s probe set-up: %w", other, err)
		}
		pp, err := measured(b, pw, probeOps[other], nil)
		if err != nil {
			return result{}, err
		}
		b.closeService()
		probe := b.tr.snapshot()[mark:]
		printLayerTable(out, other+" (probe)", layerTable(probe))
		for k, v := range layerValues(probe, pp) {
			if _, ok := vals[k]; !ok {
				vals[k], src[k] = v, other+" probe"
			}
		}
	}
	m := make(map[string]metric, len(layerSpecs))
	fmt.Fprintf(out, "per-layer metrics, workload %s, seed %d:\n", name, b.seed)
	for _, ls := range layerSpecs {
		v, ok := vals[ls.name]
		if !ok {
			return result{}, fmt.Errorf("no spans measured layer metric %s", ls.name)
		}
		m[ls.name] = metric{v, ls.unit}
		fmt.Fprintf(out, "  %-30s %14.4f %-6s [%s]\n", ls.name, v, ls.unit, src[ls.name])
	}
	if err := writeSpans(spansPath, b.tr.snapshot()); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", spansPath)
	return result{Attempted: max(p.ops, 1), Metrics: m}, nil
}

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndSpecs lists the end-to-end metrics in BENCHMARK.json's order.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_p90_mb", "MB"},
}

// layerSpecs lists the per-layer metrics in BENCHMARK.json's order.
var layerSpecs = []metricSpec{
	{"service.plan_miss_ms", "ms"},
	{"service.plan_hit_us", "us"},
	{"service.plan_disk_us", "us"},
	{"service.disk_hit_share", "ratio"},
	{"service.open_ms", "ms"},
	{"service.session_miss_share", "ratio"},
	{"service.computations_per_miss", "ratio"},
	{"service.routing_us", "us"},
	{"service.replan_wait_ms", "ms"},
	{"lancet.plan_self_ms", "ms"},
	{"model.build_ms", "ms"},
	{"model.build_allocs", "count"},
	{"moe.proxy_ms", "ms"},
	{"dwsched.run_ms", "ms"},
	{"dwsched.allocs", "count"},
	{"partition.run_ms", "ms"},
	{"partition.evals", "count"},
	{"partition.allocs", "count"},
	{"partition.hinted_run_ms", "ms"},
	{"partition.hinted_evals_ratio", "ratio"},
	{"sim.simulate_ms", "ms"},
	{"sim.predict_ms", "ms"},
	{"baselines.tutel_ms", "ms"},
	{"cost.memo_hit_ratio", "ratio"},
	{"cost.skew_table_ms", "ms"},
	{"netsim.ingest_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// layerValues computes every per-layer metric the spans (and the phase's
// /v1/stats deltas) have samples for. Times are medians over spans.
func layerValues(spans []span, p *phase) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// med is the median of f over the spans named name that keep passes.
	med := func(name string, keep func(span) bool, f func(span) float64) (float64, bool) {
		var xs []float64
		for _, s := range spans {
			if s.Name == name && (keep == nil || keep(s)) {
				xs = append(xs, f(s))
			}
		}
		if len(xs) == 0 {
			return 0, false
		}
		return median(xs), true
	}
	ms := func(s span) float64 { return float64(s.dur()) / 1e6 }
	us := func(s span) float64 { return float64(s.dur()) / 1e3 }
	allocs := func(s span) float64 { return float64(s.Allocs) }
	cache := func(state string) func(span) bool {
		return func(s span) bool { return s.Cache == state && (state != "miss" || s.Op >= 0) }
	}
	out := make(map[string]float64)
	set := func(k string, v float64, ok bool) {
		if ok {
			out[k] = v
		}
	}
	set2 := func(k string) func(float64, bool) { return func(v float64, ok bool) { set(k, v, ok) } }
	set2("service.plan_miss_ms")(med("service.plan", cache("miss"), ms))
	set2("service.plan_hit_us")(med("service.plan", cache("hit"), us))
	set2("service.plan_disk_us")(med("service.plan", cache("disk"), us))
	// The restore plan-hot's restart pays.
	set2("service.open_ms")(med("service.open", cache("restore"), ms))
	set2("service.routing_us")(med("service.routing", cache("ingest"), us))
	set2("service.replan_wait_ms")(med("service.replan_wait", nil, ms))
	set2("lancet.plan_self_ms")(med("lancet.plan", nil, func(s span) float64 {
		return float64(selfTime(s, children[s.ID])) / 1e6
	}))
	set2("model.build_ms")(med("model.build", nil, ms))
	set2("model.build_allocs")(med("model.build", nil, allocs))
	set2("moe.proxy_ms")(med("moe.proxy", nil, ms))
	set2("dwsched.run_ms")(med("dwsched.run", nil, ms))
	set2("dwsched.allocs")(med("dwsched.run", nil, allocs))
	set2("partition.run_ms")(med("partition.run", nil, ms))
	set2("partition.evals")(med("partition.run", nil, func(s span) float64 { return float64(s.Evals) }))
	set2("partition.allocs")(med("partition.run", nil, allocs))
	set2("partition.hinted_run_ms")(med("partition.hinted_run", nil, ms))
	set2("sim.simulate_ms")(med("sim.simulate", nil, ms))
	set2("sim.predict_ms")(med("sim.predict", nil, ms))
	set2("baselines.tutel_ms")(med("baselines.tutel", nil, ms))
	set2("cost.skew_table_ms")(med("cost.skew_table", nil, ms))
	set2("netsim.ingest_us")(med("netsim.ingest", nil, us))

	var hinted, cold, hits, lookups float64
	for _, s := range spans {
		switch s.Name {
		case "partition.hinted_run":
			hinted += float64(s.Evals)
			cold += float64(s.RefEvals)
		case "lancet.plan", "sim.predict", "sim.simulate":
			hits += float64(s.MemoHits)
			lookups += float64(s.MemoLookups)
		}
	}
	set("partition.hinted_evals_ratio", share(hinted, cold), cold > 0)
	set("cost.memo_hit_ratio", share(hits, lookups), lookups > 0)

	d := p.stats
	set("service.disk_hit_share", share(float64(d.diskHits), float64(d.lookups)), d.disk && d.lookups > 0)
	set("service.session_miss_share", share(float64(d.sessionMisses), float64(d.sessionLookups)), d.sessionLookups > 0)
	set("service.computations_per_miss", share(float64(d.computations), float64(p.clientMisses+p.replans)), p.clientMisses+p.replans > 0)
	return out
}

// phase is one measured phase's client-side record.
type phase struct {
	deadline time.Time
	ops      int
	lat      [2][]time.Duration // [untraced, traced] op latencies
	cyc      [2]time.Duration   // client time per kind, replays excluded
	wall     time.Duration
	rssMB    []float64
	props    map[string]int // ops having each property

	// The speed reference (timed runs only; one client samples it): the
	// kernel, how many of the client's ops apart its samples are, the
	// samples, and the kernel's running time, which wall excludes.
	ref      *refKernel
	refEvery int
	refs     []time.Duration
	refTime  time.Duration

	clientMisses int64 // plan-store misses the client's requests implied
	replans      int64 // re-plans the client waited for
	stats        delta // /v1/stats over the phase
}

func newPhase(deadline time.Time) *phase {
	return &phase{deadline: deadline, props: make(map[string]int)}
}

// part is a per-client phase with p's deadline, merged back when the
// client is done, so clients share no state while they run.
func (p *phase) part() *phase { return newPhase(p.deadline) }

func (p *phase) merge(q *phase) {
	p.ops += q.ops
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
		p.cyc[k] += q.cyc[k]
	}
	for k, c := range q.props {
		p.props[k] += c
	}
	p.clientMisses += q.clientMisses
	p.replans += q.replans
	p.refs = append(p.refs, q.refs...)
	p.refTime += q.refTime
}

func (p *phase) expired() bool { return time.Now().After(p.deadline) }

func (p *phase) record(lat time.Duration, traced bool) {
	p.ops++
	k := 0
	if traced {
		k = 1
	}
	p.lat[k] = append(p.lat[k], lat)
	if p.ref != nil && p.ops%p.refEvery == 0 {
		med, total := p.ref.sample()
		p.refs = append(p.refs, med)
		p.refTime += total
	}
}

func (p *phase) cycled(traced bool, d time.Duration) {
	if traced {
		p.cyc[1] += d
	} else {
		p.cyc[0] += d
	}
}

func (p *phase) latencies() []time.Duration { return slices.Concat(p.lat[0], p.lat[1]) }

// delta is the change of the /v1/stats counters over a phase.
type delta struct {
	computations, misses, memoryHits, diskHits, deduplicated, lookups int64
	sessionMisses, sessionLookups                                     int64
	updates, detected, replans                                        int64
	disk                                                              bool // the service has a disk tier
}

func statsDelta(a, b service.StatsResponse) delta {
	return delta{
		disk:           b.DiskStore != nil,
		computations:   b.Computations - a.Computations,
		misses:         b.PlanTiers.Misses - a.PlanTiers.Misses,
		memoryHits:     b.PlanTiers.MemoryHits - a.PlanTiers.MemoryHits,
		diskHits:       b.PlanTiers.DiskHits - a.PlanTiers.DiskHits,
		deduplicated:   b.Deduplicated - a.Deduplicated,
		lookups:        b.PlanStore.Hits + b.PlanStore.Misses - a.PlanStore.Hits - a.PlanStore.Misses,
		sessionMisses:  b.SessionStore.Misses - a.SessionStore.Misses,
		sessionLookups: b.SessionStore.Hits + b.SessionStore.Misses - a.SessionStore.Hits - a.SessionStore.Misses,
		updates:        b.Drift.Updates - a.Drift.Updates,
		detected:       b.Drift.DriftDetected - a.Drift.DriftDetected,
		replans:        b.Drift.Replans - a.Drift.Replans,
	}
}
