package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"

	"lancet"
	"lancet/internal/cache"
	"lancet/internal/experiments"
	"lancet/internal/pool"
)

// maxSweepPoints bounds one buffered /v1/sweep's cross product; larger
// grids are a client error pointing at the streaming mode, not a way to
// monopolize the worker pool.
const maxSweepPoints = 1024

// maxStreamSweepPoints bounds a streaming /v1/sweep. Streaming lifts the
// buffered cap — results flush as they complete instead of accumulating —
// so this is only a backstop against grids too large to even enumerate.
const maxStreamSweepPoints = 1 << 20

// maxBodyBytes bounds POST request bodies; planning requests are small and
// a sweep near the grid cap still fits comfortably.
const maxBodyBytes = 1 << 20

// maxFleetGPUs bounds the fleet one request may name, in every spelling.
// A session's cost model indexes every GPU pair, so its memory grows with
// the square of the fleet: 65,536 GPUs would take 32 GiB. 512 is eight
// times the paper's largest fleet.
const maxFleetGPUs = 512

// Config sizes the service.
type Config struct {
	// CacheSize bounds the plan store (entries). Default 256.
	CacheSize int
	// Parallel is the sweep worker-pool size. Default runtime.NumCPU().
	Parallel int

	// DriftThreshold is the normalized L1 distance (in [0, 2], see
	// netsim.RoutingProfile.L1Distance) between a drift session's decayed
	// traffic snapshot and the profile its live plan was built from beyond
	// which a background re-plan triggers (DESIGN.md §16). 0 selects the
	// default 0.1; negative disables re-planning (updates are still
	// accumulated and reported).
	DriftThreshold float64
	// DecayHalfLife is how many /v1/routing updates it takes for an
	// update's influence on a drift session's profile to halve. 0 selects
	// the default 8; negative disables decay (pure running sum).
	DecayHalfLife float64
}

// Service is the long-lived planning front end: a two-tier plan store —
// a hot in-memory LRU keyed on the canonicalized request, optionally
// backed by a durable disk artifact store (DESIGN.md §14) — that computes
// concurrent identical requests once, and a pool of reusable sessions.
// All methods are safe for concurrent use.
type Service struct {
	cfg Config

	plans *cache.Cache[string, *Result]

	// disk is the durable tier behind plans; nil when the service runs
	// memory-only (New). Entries evicted from the memory LRU stay served
	// from here, and restarts restore from it (Open).
	disk *diskStore

	sessions *cache.Cache[string, *lancet.Session]

	// computations counts actual plan-and-simulate runs — the quantity the
	// burst test pins to 1 for N identical concurrent requests.
	computations atomic.Int64

	// dpEvals accumulates the partition-DP evaluation counts of every
	// computation. Kept out of Result: the count is the cost of an answer,
	// not part of it.
	dpEvals atomic.Int64

	// planMisses counts lookups no plan-store tier answered (fresh
	// computations and failed ones). A dedicated monotonic counter — not
	// memory-misses minus disk-hits, whose two racing reads could make a
	// derived value dip between scrapes.
	planMisses atomic.Int64

	// rechecked counts lookups that missed the memory tier but found the
	// result there on Fill's re-check, because another request's
	// computation landed in between: memory-tier hits that the LRU's own
	// counters recorded as misses.
	rechecked atomic.Int64

	// retiredCost accumulates evicted sessions' cost-model counters so
	// /v1/stats stays monotonic when the session pool churns.
	retiredCost struct{ hits, misses, profiled atomic.Int64 }

	// sweepSem bounds sweep computation server-wide at cfg.Parallel: each
	// request still fans out over its own pool.ForEachIndexed goroutines,
	// but concurrent sweeps share this one budget of running grid points.
	sweepSem chan struct{}

	// driftSessions holds the per-plan drift loops fed by /v1/routing
	// (DESIGN.md §16).
	driftSessions *cache.Cache[string, *driftSession]

	// replanQ runs background re-plans; created on the first detected
	// drift (replanQueue) so memory-only services that never see a routing
	// update spawn no workers. Close shuts it down.
	replanQ atomic.Pointer[pool.Queue]

	// The drift loop's counters (all monotonic): updates ingested, drifts
	// detected, background re-plans completed / failed, and stale (plan
	// older than the traffic it serves) responses.
	driftUpdates  atomic.Int64
	driftDetected atomic.Int64
	replans       atomic.Int64
	replanErrs    atomic.Int64
	staleServed   atomic.Int64

	// replanGate, when set (tests only), is invoked at the start of every
	// background re-plan — the hook the stale-while-revalidate property
	// test uses to hold a re-plan open while it bursts reads.
	replanGate func()
}

// New builds a Service, applying defaults for zero Config fields.
func New(cfg Config) *Service {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.NumCPU()
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = defaultDriftThreshold
	}
	if cfg.DecayHalfLife == 0 {
		cfg.DecayHalfLife = defaultDecayHalfLife
	}
	s := &Service{
		cfg:           cfg,
		plans:         cache.New[string, *Result](cfg.CacheSize),
		sessions:      cache.New[string, *lancet.Session](sessionCap),
		driftSessions: cache.New[string, *driftSession](driftSessionCap),
	}
	s.sessions.OnEvict(func(sess *lancet.Session) {
		// Counters an in-flight computation accrues on the evicted session
		// after this snapshot are lost — an accepted approximation; the
		// tally exists to keep the aggregate monotonic, not exact.
		cs := sess.CostStats()
		s.retiredCost.hits.Add(cs.Hits)
		s.retiredCost.misses.Add(cs.Misses)
		s.retiredCost.profiled.Add(cs.ProfiledOps)
	})
	s.sweepSem = make(chan struct{}, cfg.Parallel)
	return s
}

// Open builds a Service whose plan store is backed by the durable disk
// artifact store in dir (DESIGN.md §14): artifacts already there are
// verified and restored (served with X-Lancet-Cache: disk), every fresh
// computation is written through atomically, and corrupt or torn artifacts
// are counted and recomputed — never served, never fatal.
func Open(cfg Config, dir string) (*Service, error) {
	disk, err := openDiskStore(dir)
	if err != nil {
		return nil, err
	}
	s := New(cfg)
	s.disk = disk
	return s, nil
}

// session returns a view of the pooled session for the request's model and
// cluster under the request's workload, building (and deduplicating
// concurrent builds of) the pooled session on first use. Views share the
// pooled session's graph and cost model (DESIGN.md §9). A drift re-plan's
// streamed profile is installed on its fresh view, which has no profile to
// supersede, so the install invalidates nothing in the shared cost model
// (DESIGN.md §16).
func (s *Service) session(c *canonical) (*lancet.Session, error) {
	base, _, err := s.sessions.Do(c.sessionKey(), func() (*lancet.Session, error) {
		return buildSession(c)
	})
	if err != nil {
		return nil, err
	}
	view := base.WithWorkload(c.routing.workload())
	if c.profile != nil {
		if err := view.SetWorkloadProfile(c.profile); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// buildSession constructs the lancet session a canonical request's session
// key names: cluster (uniform or hetero), topology and model, with no
// workload — each request plans on a view of it (session). canonicalize
// already validated every ingredient; rebuilding here is cheap and keeps
// the cache key the single source of truth.
func buildSession(c *canonical) (*lancet.Session, error) {
	var cluster lancet.Cluster
	var err error
	if len(c.nodeClasses) > 0 {
		cluster, err = lancet.NewHeteroCluster(c.nodeClasses...)
	} else {
		cluster, err = lancet.NewCluster(c.clusterType, c.gpus)
	}
	if err != nil {
		return nil, err
	}
	if c.topo != (TopologySpec{}) {
		if cluster, err = cluster.WithTopology(c.topo.toTopology()); err != nil {
			return nil, err
		}
	}
	return lancet.NewSession(c.cfg, cluster)
}

// resultFor serves one framework's result through the two-tier plan store:
// memory LRU hit, disk-artifact hit (promoted into the LRU), a share of an
// identical request's computation in flight, or a fresh computation
// written through to both tiers. The returned cache state is "hit",
// "disk", "shared" or "miss". Every computation plans cold, so every
// stored result, a drift re-plan's included, is a function of its plan
// key alone (DESIGN.md §7).
func (s *Service) resultFor(c *canonical, fw string) (*Result, string, error) {
	key := c.planKey(fw)
	if r, ok := s.plans.Get(key); ok {
		return r, "hit", nil
	}
	return s.fill(c, key, fw)
}

// fill serves a lookup of key that the memory tier missed through the
// plan cache's Fill: a share of the key's computation in flight, the
// re-check (a result stored since the miss, so a burst of N identical
// requests runs Compute exactly once), the disk tier, or a computation.
// Every result the build returns is sealed: a computed one by seal, so a
// result JSON cannot encode is an error that neither tier stores, and a
// disk artifact's by its payload, which is the sealed encoding it was
// written from (DESIGN.md §14). Panics while planning are
// contained and returned as errors, so a bad grid point cannot take down
// sweep workers (plain goroutines with no net/http recovery) or the whole
// server.
func (s *Service) fill(c *canonical, key, fw string) (r *Result, state string, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, state, err = nil, "error", fmt.Errorf("panic while planning %s: %v", fw, p)
		}
	}()
	fromDisk := false
	r, src, err := s.plans.Fill(key, func() (*Result, error) {
		if s.disk != nil {
			if payload, ok := s.disk.get(key); ok {
				// The decode fills the fields planBody, sweeps and the
				// drift loop read; the payload itself is served as is.
				var res Result
				if err := json.Unmarshal(payload, &res); err == nil && res.Framework == fw {
					res.encoded = payload
					fromDisk = true
					return &res, nil
				}
				// A framed, checksummed artifact whose payload still isn't
				// a Result of the key's framework (another encoding, null,
				// another framework's result) is corrupt in a way the codec
				// can't see; count it and recompute rather than serve a
				// wrong plan.
				s.disk.discard(key)
			}
		}
		s.planMisses.Add(1)
		sess, err := s.session(c)
		if err != nil {
			return nil, err
		}
		s.computations.Add(1)
		res, err := Compute(sess, fw, c.seed, c.opts.toLancet(), c.lostNodes...)
		if err != nil {
			return nil, err
		}
		s.dpEvals.Add(int64(res.evaluations))
		if err := res.seal(); err != nil {
			return nil, err
		}
		if s.disk != nil {
			s.disk.put(key, res.encoded)
		}
		return &res, nil
	})
	state = "miss"
	switch {
	case src == cache.Shared:
		state = "shared"
	case src == cache.Rechecked:
		s.rechecked.Add(1)
		state = "hit"
	case fromDisk:
		state = "disk"
	}
	return r, state, err
}

// Computations reports how many plan-and-simulate runs the service has
// actually executed (cache hits and deduplicated requests excluded).
func (s *Service) Computations() int64 { return s.computations.Load() }

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	// Request echoes the canonicalized request with all defaults resolved.
	Request PlanRequest `json:"request"`
	Result  *Result     `json:"result"`
	// Baseline is the comparison plan, omitted when disabled.
	Baseline *Result `json:"baseline,omitempty"`
	// SpeedupOverBaseline is baseline iteration time over result iteration
	// time; omitted when either side OOMs or the comparison is disabled.
	SpeedupOverBaseline float64 `json:"speedup_over_baseline,omitempty"`
}

// Handler returns the service's HTTP routes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/routing", s.handleRouting)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/version", handleVersion)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON writes v as an indented JSON reply. /v1/plan writes the same
// bytes around its stored results' sealed encodings instead (planBody).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// decodeBody decodes one POST body into v: at most maxBodyBytes, unknown
// fields rejected, and nothing but whitespace after the JSON value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := req.canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A baseline the memory tier holds is read here. One that must come
	// from disk or be computed is independent of the main plan, so it runs
	// concurrently and a cold default request doesn't pay for both
	// sequentially.
	var base *Result
	var pending chan outcome
	if c.baseline != "" {
		key := c.planKey(c.baseline)
		var ok bool
		if base, ok = s.plans.Get(key); !ok {
			pending = make(chan outcome, 1)
			go func() {
				var o outcome
				o.r, _, o.err = s.fill(c, key, c.baseline)
				pending <- o
			}()
		}
	}
	res, state, err := s.resultFor(c, c.framework)
	if pending != nil {
		o := <-pending
		base = o.r
		if err == nil {
			err = o.err
		}
	}
	var body []byte
	if err == nil {
		body, err = planBody(c, res, base)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The cache verdict travels in a header so identical requests get
	// byte-identical bodies whether served fresh, shared or from the store.
	w.Header().Set("X-Lancet-Cache", state)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// outcome is a baseline lookup's answer, handed back from its goroutine.
type outcome struct {
	r   *Result
	err error
}

// planBody renders a /v1/plan response: the PlanResponse envelope around
// the results' sealed bytes, exactly what writeJSON writes for
// PlanResponse{...} — the same indentation, omitempty rules and trailing
// newline — without re-encoding results that never change (DESIGN.md §9).
// The request echo and the speedup are appended with strconv, so nothing
// is encoded by reflection. base is nil when the comparison is disabled.
func planBody(c *canonical, res, base *Result) ([]byte, error) {
	var speedup float64
	if base != nil && !res.OOM && !base.OOM && res.IterationMs > 0 {
		speedup = base.IterationMs / res.IterationMs
		if math.IsInf(speedup, 0) || math.IsNaN(speedup) {
			// The encoder's own error, as writeJSON would have met it.
			_, err := json.Marshal(speedup)
			return nil, err
		}
	}
	// 512 bytes hold the envelope, the speedup and the echo of every
	// plan-cold shape; a longer echo grows the buffer once.
	n := len(res.encoded) + 512
	if base != nil {
		n += len(base.encoded)
	}
	b := c.appendEcho(append(make([]byte, 0, n), "{\n  \"request\": "...))
	b = append(append(b, ",\n  \"result\": "...), res.encoded...)
	if base != nil {
		b = append(append(b, ",\n  \"baseline\": "...), base.encoded...)
	}
	if speedup != 0 {
		b = appendJSONFloat(append(b, ",\n  \"speedup_over_baseline\": "...), speedup)
	}
	return append(b, "\n}\n"...), nil
}

// SweepRequest is the body of POST /v1/sweep: a grid of configurations,
// fanned out over the service's worker pool. Empty dimensions default to
// one-element grids matching PlanRequest's defaults.
type SweepRequest struct {
	Models     []string `json:"models,omitempty"`
	Clusters   []string `json:"clusters,omitempty"`
	GPUs       []int    `json:"gpus,omitempty"`
	Gates      []string `json:"gates,omitempty"`
	Frameworks []string `json:"frameworks,omitempty"`

	// Classes declares one mixed-generation fleet for every grid point
	// (DESIGN.md §12); it replaces the Clusters/GPUs dimensions, so setting
	// it alongside either is a client error surfaced per point.
	Classes []ClassSpec `json:"classes,omitempty"`

	Batch        int           `json:"batch,omitempty"`
	Seed         *int64        `json:"seed,omitempty"`
	Routing      *RoutingSpec  `json:"routing,omitempty"`
	Topology     *TopologySpec `json:"topology,omitempty"`
	SharedExpert bool          `json:"shared_expert,omitempty"`
	ZeRO3        bool          `json:"zero3,omitempty"`
	Options      PlanOptions   `json:"options,omitempty"`

	// Stream selects the NDJSON streaming response: each grid point is
	// written and flushed as a {"index": i, ...} line the moment it
	// completes (completion order; index is the deterministic grid
	// position), and the buffered-mode grid cap does not apply.
	Stream bool `json:"stream,omitempty"`
}

// SweepItem is one grid point's outcome. Err carries per-point failures
// (e.g. a GPU count invalid for one cluster type) without failing the rest
// of the sweep — the same containment the experiment suite engine uses.
type SweepItem struct {
	Request PlanRequest `json:"request"`
	Result  *Result     `json:"result,omitempty"`
	Err     string      `json:"error,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep, results in
// deterministic grid order regardless of completion order.
type SweepResponse struct {
	Count   int         `json:"count"`
	Results []SweepItem `json:"results"`
}

func orDefault(xs []string, def string) []string {
	if len(xs) == 0 {
		return []string{def}
	}
	return xs
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	models := orDefault(req.Models, "gpt2-s")
	clusters := orDefault(req.Clusters, "V100")
	gates := orDefault(req.Gates, "")
	frameworks := orDefault(req.Frameworks, lancet.FrameworkLancet)
	gpuCounts := req.GPUs
	if len(gpuCounts) == 0 {
		gpuCounts = []int{16}
	}
	if len(req.Classes) > 0 {
		// A class list pins the fleet: collapse the cluster dimensions to
		// one empty point so canonicalize sees the classes spelling alone
		// (explicit Clusters/GPUs surface the exclusivity error per point).
		if len(req.Clusters) == 0 {
			clusters = []string{""}
		}
		if len(req.GPUs) == 0 {
			gpuCounts = []int{0}
		}
	}

	// Reject oversized grids before materializing a single point. The
	// buffered cap exists because the whole response accumulates in
	// memory; streaming flushes per point, so it only keeps a backstop.
	// The count stops once it passes the backstop: the body bound keeps
	// every dimension below 2^19 entries, so a count within the backstop
	// times one more dimension cannot overflow, where the product of all
	// five can wrap to 0.
	points := int64(1)
	for _, n := range []int{len(models), len(clusters), len(gpuCounts), len(gates), len(frameworks)} {
		points *= int64(n)
		if points > maxStreamSweepPoints {
			writeError(w, http.StatusBadRequest,
				codedf(CodeGridTooLarge, "sweep grid has more than %d points, the streaming limit", maxStreamSweepPoints))
			return
		}
	}
	if !req.Stream && points > maxSweepPoints {
		writeError(w, http.StatusBadRequest,
			codedf(CodeGridTooLarge, `sweep grid has %d points, limit %d for buffered responses; set "stream": true for an NDJSON stream without the cap`,
				points, maxSweepPoints))
		return
	}

	// Expand the cross product in deterministic order.
	var grid []PlanRequest
	for _, m := range models {
		for _, cl := range clusters {
			for _, g := range gpuCounts {
				for _, gate := range gates {
					for _, fw := range frameworks {
						grid = append(grid, PlanRequest{
							Model: m, Cluster: cl, GPUs: g, Gate: gate,
							Classes:   req.Classes,
							Framework: fw, Baseline: BaselineNone,
							Batch: req.Batch, Seed: req.Seed,
							Routing: req.Routing, Topology: req.Topology,
							SharedExpert: req.SharedExpert, ZeRO3: req.ZeRO3,
							Options: req.Options,
						})
					}
				}
			}
		}
	}

	if req.Stream {
		s.streamSweep(w, r, grid)
		return
	}

	// Fan the points out over the shared worker-pool fan-out (the suite
	// engine's pattern, including its cancellation: a disconnected client
	// stops the dispatch instead of grinding through dead work); results
	// land at their grid index so output order is stable.
	ctx := r.Context()
	items := make([]SweepItem, len(grid))
	undispatched := s.runSweep(ctx, grid, func(i int, it SweepItem) { items[i] = it })
	for i := undispatched; i < len(grid); i++ {
		items[i] = SweepItem{Request: grid[i], Err: context.Cause(ctx).Error()}
	}

	writeJSON(w, http.StatusOK, SweepResponse{Count: len(items), Results: items})
}

// runSweep dispatches the grid points over the worker pool and emits every
// completed item. The server-wide semaphore makes cfg.Parallel a bound
// across concurrent sweeps, not a per-request one. It returns the index of
// the first point that was never dispatched (cancellation); dispatched
// points are always emitted, with the cancellation error if the client left
// while they waited for a slot.
func (s *Service) runSweep(ctx context.Context, grid []PlanRequest, emit func(int, SweepItem)) (undispatched int) {
	return pool.ForEachIndexed(ctx, len(grid), s.cfg.Parallel, func(i int) {
		// Give up the wait for a semaphore slot when the client is gone —
		// an already-dispatched point must not run dead work.
		select {
		case s.sweepSem <- struct{}{}:
		case <-ctx.Done():
			emit(i, SweepItem{Request: grid[i], Err: context.Cause(ctx).Error()})
			return
		}
		it := s.sweepOne(grid[i])
		<-s.sweepSem
		emit(i, it)
	})
}

// streamSweep is /v1/sweep's NDJSON mode: every completed grid point is
// written and flushed immediately as one line carrying its deterministic
// grid index, so arbitrarily large sweeps never accumulate a response in
// memory and clients see results as they land.
func (s *Service) streamSweep(w http.ResponseWriter, r *http.Request, grid []PlanRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	type streamItem struct {
		Index int `json:"index"`
		SweepItem
	}
	ctx := r.Context()
	ch := make(chan streamItem, s.cfg.Parallel)
	go func() {
		defer close(ch)
		undispatched := s.runSweep(ctx, grid, func(i int, it SweepItem) {
			ch <- streamItem{Index: i, SweepItem: it}
		})
		for i := undispatched; i < len(grid); i++ {
			ch <- streamItem{Index: i, SweepItem: SweepItem{Request: grid[i], Err: context.Cause(ctx).Error()}}
		}
	}()
	for it := range ch {
		enc.Encode(it) //nolint:errcheck // client gone; dispatch stops via ctx
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// sweepOne resolves and serves a single grid point through the same plan
// store as /v1/plan, folding its errors into the item.
func (s *Service) sweepOne(req PlanRequest) SweepItem {
	c, err := req.canonicalize()
	if err != nil {
		return SweepItem{Request: req, Err: err.Error()}
	}
	res, _, err := s.resultFor(c, c.framework)
	if err != nil {
		return SweepItem{Request: c.echo(), Err: err.Error()}
	}
	return SweepItem{Request: c.echo(), Result: res}
}

// ExperimentInfo describes one registered experiment for GET
// /v1/experiments.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Desc  string `json:"desc"`
	Order int    `json:"order"`
}

func (s *Service) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	all := experiments.All()
	infos := make([]ExperimentInfo, len(all))
	for i, e := range all {
		infos[i] = ExperimentInfo{Name: e.Name, Desc: e.Desc, Order: e.Order}
	}
	writeJSON(w, http.StatusOK, infos)
}

// StoreStats is a snapshot of one LRU store's counters, rendered by
// /v1/stats.
type StoreStats struct {
	Capacity  int   `json:"capacity"`
	Size      int   `json:"size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func storeStats(st cache.Stats) StoreStats {
	return StoreStats{Capacity: st.Capacity, Size: st.Size, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// APIRevision is the wire-surface revision (see GET /v1/version), here
	// too so a single stats scrape suffices for a compatibility check.
	APIRevision int `json:"api_revision"`
	// PlanStore is the memory tier of the plan store; DiskStore, present
	// only when the service was Opened on a store directory, is the
	// durable tier behind it (DESIGN.md §14). PlanTiers folds the two into
	// the per-tier hit breakdown a load test reads.
	PlanStore    StoreStats     `json:"plan_store"`
	DiskStore    *DiskTierStats `json:"disk_store,omitempty"`
	PlanTiers    TierBreakdown  `json:"plan_tiers"`
	SessionStore StoreStats     `json:"session_store"`
	// Computations is how many plan-and-simulate runs actually executed;
	// Deduplicated is how many requests shared an in-flight one.
	Computations int64 `json:"computations"`
	Deduplicated int64 `json:"deduplicated"`
	// DPEvaluations accumulates partition-DP candidate evaluations across
	// every computation: the optimization effort the plan store saves on
	// every hit.
	DPEvaluations int64 `json:"dp_evaluations"`
	// CostModel aggregates lancet.CostStats over every pooled session
	// plus the retired tally of evicted ones (monotonic across scrapes).
	// Every Lancet plan prices on a pooled session's cost model, drift
	// re-plans included; the baselines' derived models (DESIGN.md §5) are
	// left out.
	CostModel CostModelStats `json:"cost_model"`
	// Drift is the /v1/routing control loop's counters (DESIGN.md §16).
	Drift DriftStats `json:"drift"`
}

// DriftStats reports the drift loop's state: live sessions plus the
// monotonic update/detection/re-plan/stale counters.
type DriftStats struct {
	Sessions      int   `json:"sessions"`
	Updates       int64 `json:"updates"`
	DriftDetected int64 `json:"drift_detected"`
	Replans       int64 `json:"replans"`
	ReplanErrors  int64 `json:"replan_errors"`
	StaleServed   int64 `json:"stale_served"`
}

// TierBreakdown distinguishes which tier served each plan-store lookup.
// A memory miss that a disk artifact answers counts as a disk hit; only
// lookups neither tier answered (fresh computations, shared flights and
// errors) are misses. All fields are monotonic; an entry evicted from the
// memory LRU keeps its recorded hits, mirroring the retired-counter
// treatment session eviction gets, so nothing ever goes backwards.
type TierBreakdown struct {
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Misses     int64 `json:"misses"`
	// CombinedHitRate is the fraction of lookups either tier answered —
	// the number the service's Zipf-mix hit-rate test gates on.
	CombinedHitRate float64 `json:"combined_hit_rate"`
}

// CostModelStats aggregates the sessions' cost-model memoization counters
// (lancet.CostStats): lookups in the op-profile, skew-table and
// uniform-replay memos. A skew-table miss is a table build. Communication
// predictions interpolate their table uncached and are not counted.
type CostModelStats struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	ProfiledOps int64   `json:"profiled_ops"`
	HitRate     float64 `json:"hit_rate"`
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the service's counters.
func (s *Service) Stats() StatsResponse {
	// Read before the plan store's counters, which already hold each
	// re-checked lookup's miss, so the hit rate never exceeds 1.
	rechecked := s.rechecked.Load()
	plans := s.plans.Stats()
	resp := StatsResponse{
		APIRevision:   APIRevision,
		PlanStore:     storeStats(plans),
		SessionStore:  storeStats(s.sessions.Stats()),
		Computations:  s.computations.Load(),
		Deduplicated:  plans.Deduplicated,
		DPEvaluations: s.dpEvals.Load(),
		Drift: DriftStats{
			Sessions:      s.driftSessions.Len(),
			Updates:       s.driftUpdates.Load(),
			DriftDetected: s.driftDetected.Load(),
			Replans:       s.replans.Load(),
			ReplanErrors:  s.replanErrs.Load(),
			StaleServed:   s.staleServed.Load(),
		},
	}
	resp.PlanTiers.MemoryHits = resp.PlanStore.Hits + rechecked
	if s.disk != nil {
		ds := s.disk.stats()
		resp.DiskStore = &ds
		resp.PlanTiers.DiskHits = ds.Hits
	}
	resp.PlanTiers.Misses = s.planMisses.Load()
	if total := resp.PlanStore.Hits + resp.PlanStore.Misses; total > 0 {
		resp.PlanTiers.CombinedHitRate =
			float64(resp.PlanTiers.MemoryHits+resp.PlanTiers.DiskHits) / float64(total)
	}
	// Pooled sessions plus the retired tally, read in one cut under the
	// pool's lock (OnEvict moves counters between the two under the same
	// lock), so pool churn never makes the counters go backwards between
	// scrapes.
	s.sessions.Values(func(pooled []*lancet.Session) {
		resp.CostModel.Hits = s.retiredCost.hits.Load()
		resp.CostModel.Misses = s.retiredCost.misses.Load()
		resp.CostModel.ProfiledOps = s.retiredCost.profiled.Load()
		for _, sess := range pooled {
			cs := sess.CostStats()
			resp.CostModel.Hits += cs.Hits
			resp.CostModel.Misses += cs.Misses
			resp.CostModel.ProfiledOps += cs.ProfiledOps
		}
	})
	if total := resp.CostModel.Hits + resp.CostModel.Misses; total > 0 {
		resp.CostModel.HitRate = float64(resp.CostModel.Hits) / float64(total)
	}
	return resp
}
