package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"lancet/internal/netsim"
	"lancet/internal/pool"
)

// The drift loop's defaults (DESIGN.md §16): re-plan when the decayed
// traffic snapshot has moved more than a 0.1 normalized L1 distance from
// the live plan's profile, with an update's influence halving every 8
// updates.
const (
	defaultDriftThreshold = 0.1
	defaultDecayHalfLife  = 8
)

// replanBacklog bounds queued background re-plans. One in-flight re-plan
// per drift session is already enforced by the session's replanning flag,
// so the backlog only needs to cover many sessions drifting at once;
// beyond it updates shed the re-plan (and retry on the next detection)
// rather than queue unboundedly.
const replanBacklog = 16

// sessionCap bounds the session pool: the lancet sessions, one per model
// and fleet, that every plan and re-plan runs on a workload view of
// (DESIGN.md §9).
const sessionCap = 32

// driftSessionCap bounds the drift-session store. A drift session holds
// its decayed accumulator and published plan; its re-plans run on the
// pooled session of its model and fleet.
const driftSessionCap = 64

// RoutingUpdate is the body of POST /v1/routing (DESIGN.md §16): one
// streamed gate-count observation for a training session. Plan names the
// configuration being trained; it must not set routing — the streamed
// counts are the workload. Counts is the devices x devices
// gate-count matrix of the observed window: Counts[i][j] tokens entered on
// device i and were routed to an expert on device j.
type RoutingUpdate struct {
	Plan   PlanRequest `json:"plan"`
	Counts [][]int64   `json:"counts"`
}

// DriftInfo reports the drift loop's view of one update.
type DriftInfo struct {
	// Updates is how many observations this session has ingested; PlanAge
	// is how many of them arrived since the served plan was built — update
	// counts, not wall clock, so replays are deterministic.
	Updates int64 `json:"updates"`
	PlanAge int64 `json:"plan_age"`
	// Stale means the decayed traffic profile no longer matches the profile
	// the served plan was built from (fingerprints differ); Distance is the
	// normalized L1 distance between the two, in [0, 2].
	Stale    bool    `json:"stale"`
	Distance float64 `json:"distance"`
	// Detected means this update pushed Distance over the drift threshold,
	// and Replanning that a background re-plan is in flight.
	Detected   bool `json:"detected"`
	Replanning bool `json:"replanning"`
}

// RoutingResponse is the body of a successful POST /v1/routing: the live
// plan for the session's traffic plus the drift verdict. Result is the
// stored plan's bytes, sealed once when the plan entered the plan store:
// the reply is written around them (routingReply) and only the drift
// block is encoded per update, so every response between two plan swaps
// carries an identical result payload.
type RoutingResponse struct {
	Result json.RawMessage `json:"result"`
	Drift  DriftInfo       `json:"drift"`
}

// planSnapshot is one immutable published plan: the stored result, whose
// sealed bytes are served verbatim until the next swap, the traffic
// profile it was priced against, and the session update count when it was
// built (plan age's zero point). Swapped whole through driftSession.plan,
// so readers never observe a torn plan.
type planSnapshot struct {
	res     *Result
	profile *netsim.RoutingProfile
	builtAt int64
}

// driftSession is one training session's drift loop (DESIGN.md §16),
// keyed by the plan key of its configuration. The accumulator lives behind
// mu; the published plan is lock-free so serving never waits on an ingest
// or a re-plan. Re-plans run on a view of the pooled session for the
// configuration's model and fleet, like every other plan (DESIGN.md §9).
// Evicting one from the store only forgets its decayed history — the next
// update recreates it and re-plans from scratch.
type driftSession struct {
	c *canonical

	mu  sync.Mutex
	acc *netsim.DecayedProfile

	plan atomic.Pointer[planSnapshot]

	// replanning serializes plan computation for this session: the CAS
	// winner computes (synchronously for the first plan, in the background
	// after), everyone else keeps serving the published snapshot.
	replanning atomic.Bool
}

// driftSessionFor returns the drift session for a canonicalized plan,
// creating (and deduplicating concurrent creations of) it on first use.
func (s *Service) driftSessionFor(c *canonical) (*driftSession, error) {
	d, _, err := s.driftSessions.Do(c.planKey(c.framework), func() (*driftSession, error) {
		return &driftSession{c: c, acc: netsim.NewDecayedProfile(s.cfg.DecayHalfLife)}, nil
	})
	return d, err
}

// replanOnce computes a plan for the profile cur and publishes it unless a
// newer snapshot already landed. It serves through the shared two-tier
// plan store (resultFor), so re-plans are deduplicated, written through to
// disk, restored on restart, and oscillating traffic that returns to a
// planned shape hits the store instead of recomputing. A re-plan is a
// cold plan like any other, so what it publishes depends on cur alone,
// not on the plan it replaces (DESIGN.md §16).
func (s *Service) replanOnce(d *driftSession, cur *netsim.RoutingProfile, builtAt int64) (*planSnapshot, error) {
	cc := d.c.withProfile(cur)
	res, _, err := s.resultFor(cc, cc.framework)
	if err != nil {
		return nil, err
	}
	snap := &planSnapshot{res: res, profile: cur, builtAt: builtAt}
	for {
		old := d.plan.Load()
		if old != nil && old.builtAt >= builtAt {
			return old, nil
		}
		if d.plan.CompareAndSwap(old, snap) {
			return snap, nil
		}
	}
}

// replanQueue returns the background re-plan worker, starting it on first
// use so services that never see a routing update spawn no goroutines.
func (s *Service) replanQueue() *pool.Queue {
	if q := s.replanQ.Load(); q != nil {
		return q
	}
	q := pool.NewQueue(1, replanBacklog)
	if s.replanQ.CompareAndSwap(nil, q) {
		return q
	}
	q.Close()
	return s.replanQ.Load()
}

// Close shuts down the background re-plan worker, running any queued
// re-plans first. Stop the HTTP server before calling it; a memory-only
// service that never saw a routing update has nothing to close.
func (s *Service) Close() {
	if q := s.replanQ.Load(); q != nil {
		q.Close()
	}
}

func (s *Service) handleRouting(w http.ResponseWriter, r *http.Request) {
	u, err := decodeRoutingBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if u.Plan.Routing != nil {
		writeError(w, http.StatusBadRequest,
			codedf(CodeConflictingFields, "a drift plan's workload is the streamed counts; don't set routing"))
		return
	}
	if u.Plan.WhatIf != nil {
		writeError(w, http.StatusBadRequest,
			codedf(CodeConflictingFields, "a drift plan cannot carry a what_if scenario; the streamed histogram is shaped for the intact fleet"))
		return
	}
	c, err := u.Plan.canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Ingest checks the counts too, but by then a drift session exists;
	// checking here keeps a malformed update from creating one.
	if err := netsim.ValidateCounts(u.Counts, c.gpus); err != nil {
		writeError(w, http.StatusBadRequest, coded(CodeBadRouting, err))
		return
	}
	d, err := s.driftSessionFor(c)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	d.mu.Lock()
	err = d.acc.Ingest(u.Counts)
	var cur *netsim.RoutingProfile
	var updates int64
	if err == nil {
		updates = d.acc.Updates()
		cur, err = d.acc.Snapshot()
	}
	d.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, coded(CodeBadRouting, err))
		return
	}
	s.driftUpdates.Add(1)

	snap := d.plan.Load()
	if snap == nil {
		// First plan: computed synchronously by whoever wins the flag —
		// there is no stale plan to serve while it builds, so concurrent
		// first updates get a retryable 503 instead of piling onto the
		// computation.
		if !d.replanning.CompareAndSwap(false, true) {
			writeError(w, http.StatusServiceUnavailable,
				codedf(CodePlanPending, "the initial plan for this configuration is still computing; retry"))
			return
		}
		if snap = d.plan.Load(); snap == nil {
			snap, err = s.replanOnce(d, cur, updates)
			d.replanning.Store(false)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
		} else {
			d.replanning.Store(false)
		}
	}

	info := DriftInfo{
		Updates:  updates,
		PlanAge:  updates - snap.builtAt,
		Stale:    cur.Fingerprint() != snap.profile.Fingerprint(),
		Distance: cur.L1Distance(snap.profile),
	}
	info.Detected = info.Stale && s.cfg.DriftThreshold >= 0 && info.Distance > s.cfg.DriftThreshold
	if info.Detected {
		s.driftDetected.Add(1)
		if d.replanning.CompareAndSwap(false, true) {
			builtAt := updates
			accepted := s.replanQueue().TrySubmit(func() {
				defer d.replanning.Store(false)
				if gate := s.replanGate; gate != nil {
					gate()
				}
				if _, err := s.replanOnce(d, cur, builtAt); err != nil {
					s.replanErrs.Add(1)
					return
				}
				s.replans.Add(1)
			})
			if !accepted {
				// Queue full or closed: shed this re-plan; the next
				// detected drift retries.
				d.replanning.Store(false)
			}
		}
	}
	info.Replanning = d.replanning.Load()

	body, err := routingReply(snap.res, info)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if info.Stale {
		s.staleServed.Add(1)
	}
	w.Header().Set("X-Lancet-Plan-Age", strconv.FormatInt(info.PlanAge, 10))
	w.Header().Set("X-Lancet-Plan-Stale", strconv.FormatBool(info.Stale))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// routingReply renders a /v1/routing reply: exactly what writeJSON writes
// for RoutingResponse{res's bytes, info}, written around res's sealed
// encoding as planBody does, so only the drift block is encoded per update.
func routingReply(res *Result, info DriftInfo) ([]byte, error) {
	drift, err := json.MarshalIndent(info, "  ", "  ")
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(res.encoded)+len(drift)+32)
	b = append(append(b, "{\n  \"result\": "...), res.encoded...)
	b = append(append(b, ",\n  \"drift\": "...), drift...)
	return append(b, "\n}\n"...), nil
}
