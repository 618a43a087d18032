// Package service is the plan-serving layer: a long-lived HTTP/JSON front
// end over the Session/Plan API with a bounded, build-once LRU plan store
// that deduplicates concurrent identical requests, so a burst of N
// identical calls triggers one optimization run (see DESIGN.md §9).
//
// The per-framework computation (Compute) is shared with cmd/lancet, which
// makes service responses numerically identical to the CLI's output for
// the same configuration and seed.
package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"lancet"
)

// Result is one framework's planned-and-simulated outcome: the quantities
// cmd/lancet prints per row, plus the optimizer-visible prediction of the
// same plan (the two axes of paper Fig. 14).
//
// Its sealed encoding is the payload of every disk artifact, and a disk hit
// serves it as it was written (DESIGN.md §14). A change to Result's JSON
// encoding (a field added, removed, renamed, reordered or retagged) must
// bump artifactVersion, or stores written before it keep serving the old
// spelling; TestSealedResultGolden fails until the golden is updated.
type Result struct {
	Framework           string  `json:"framework"`
	Name                string  `json:"name,omitempty"`
	OOM                 bool    `json:"oom,omitempty"`
	PredictedUs         float64 `json:"predicted_us,omitempty"`
	IterationMs         float64 `json:"iteration_ms,omitempty"`
	NonOverlappedCommMs float64 `json:"non_overlapped_comm_ms,omitempty"`
	OverlapMs           float64 `json:"overlap_ms,omitempty"`
	AllToAllMs          float64 `json:"a2a_ms,omitempty"`
	Notes               string  `json:"notes,omitempty"`
	// Pipelines records a Lancet plan's chosen partition pipelines: the
	// plan shape a drift re-plan changes (DESIGN.md §16). They are
	// serialized into disk artifacts like every other field.
	Pipelines []lancet.PipelineHint `json:"pipelines,omitempty"`

	// WhatIf carries the node-loss scenario answer when the request asked
	// for one (DESIGN.md §17). Deterministic in the inputs — the scenario's
	// latencies are fixed-seed simulation means — so cached and fresh
	// responses stay byte-identical.
	WhatIf *WhatIfResult `json:"what_if,omitempty"`

	// evaluations counts the plan's partition-DP evaluations. Unexported
	// and deliberately absent from the JSON encoding: it measures the
	// effort behind the answer, not the answer, so responses and disk
	// artifacts leave it out. The service folds it into the /v1/stats
	// dp_evaluations counter at compute time instead.
	evaluations int

	// encoded is the result's JSON exactly as it sits one level deep in an
	// indented response, set once before the result enters the memory
	// tier: by seal, or from the disk artifact the result was read from.
	// /v1/plan hits copy it instead of re-encoding (DESIGN.md §9), and the
	// write-through stores it as the artifact's payload. Unexported, so no
	// encoding of the result carries it.
	encoded []byte
}

// seal encodes r once, as json.MarshalIndent(r, "  ", "  "): the bytes it
// occupies as a field of an indented response. A result JSON cannot encode
// (a simulated time that overflowed to +Inf) is a computation error, so it
// is never stored and never served as a 200.
func (r *Result) seal() error {
	b, err := json.MarshalIndent(r, "  ", "  ")
	if err != nil {
		return fmt.Errorf("encoding the %s result: %w", r.Framework, err)
	}
	r.encoded = b
	return nil
}

// WhatIfResult is the JSON shape of a node-loss what-if answer
// (DESIGN.md §17), mirroring lancet.NodeLossReport.
type WhatIfResult struct {
	LostNodes        []int   `json:"lost_nodes"`
	LostGPUs         int     `json:"lost_gpus"`
	SurvivorGPUs     int     `json:"survivor_gpus"`
	IntactMs         float64 `json:"intact_ms"`
	DegradedMs       float64 `json:"degraded_ms"`
	ReplannedMs      float64 `json:"replanned_ms"`
	DegradedSlowdown float64 `json:"degraded_slowdown"`
	ReplanSpeedup    float64 `json:"replan_speedup"`
	// ReplanDPEvaluations is the re-plan's partition-DP cost.
	ReplanDPEvaluations int `json:"replan_dp_evaluations"`
}

// Compute plans framework fw on the session and simulates one iteration
// with the given seed. opts and lostNodes apply only to the Lancet
// framework, matching cmd/lancet's -rho/-prio/-lost-nodes semantics:
// non-empty lostNodes adds the node-loss what-if (Session.NodeLoss) to the
// result. The result is deterministic in (session configuration, fw, seed,
// opts, lostNodes).
//
// Compute is the last use of the plans it makes: once it has read their
// numbers it releases them, so the next plan miss carves its rewrite from
// their storage (DESIGN.md §9). A Result keeps nothing of a plan's graph.
func Compute(sess *lancet.Session, fw string, seed int64, opts lancet.Options, lostNodes ...int) (Result, error) {
	res := Result{Framework: fw}
	var plan *lancet.Plan
	var err error
	if fw == lancet.FrameworkLancet {
		plan, err = sess.Lancet(opts)
	} else {
		plan, err = sess.Baseline(fw)
	}
	if err != nil {
		return res, err
	}
	defer plan.Release()
	res.Name = plan.Name
	if fw == lancet.FrameworkLancet {
		res.Pipelines = plan.Pipelines
		res.evaluations = plan.DPEvaluations
	}
	if plan.OOM {
		res.OOM = true
		return res, nil
	}
	if res.PredictedUs, err = plan.PredictUs(); err != nil {
		return res, err
	}
	r, err := plan.Simulate(seed)
	if err != nil {
		return res, err
	}
	res.IterationMs = r.IterationMs
	res.NonOverlappedCommMs = r.NonOverlappedCommMs
	res.OverlapMs = r.OverlapMs
	res.AllToAllMs = r.AllToAllMs
	switch fw {
	case lancet.FrameworkTutel:
		res.Notes = fmt.Sprintf("overlap degree %d", plan.TutelDegree)
	case lancet.FrameworkLancet:
		// Deliberately no wall-clock here: a Result must be deterministic in
		// its inputs so cached and freshly computed responses are
		// byte-identical.
		ks := ""
		if len(plan.Pipelines) > 0 {
			parts := make([]string, len(plan.Pipelines))
			for i, p := range plan.Pipelines {
				parts[i] = fmt.Sprint(p.K)
			}
			ks = fmt.Sprintf(" (k %s)", strings.Join(parts, ","))
		}
		res.Notes = fmt.Sprintf("%d pipelines%s, dW overlap %.1f ms, rho %d",
			len(plan.Pipelines), ks, plan.DWOverlapUs/1000, plan.RhoUsed)
	}
	if fw == lancet.FrameworkLancet && len(lostNodes) > 0 {
		rep, err := sess.NodeLoss(plan, lostNodes, opts, seed)
		if err != nil {
			return res, err
		}
		rep.Degraded.Release()
		rep.Replanned.Release()
		res.WhatIf = &WhatIfResult{
			LostNodes:           rep.LostNodes,
			LostGPUs:            rep.LostGPUs,
			SurvivorGPUs:        rep.SurvivorGPUs,
			IntactMs:            rep.IntactMs,
			DegradedMs:          rep.DegradedMs,
			ReplannedMs:         rep.ReplannedMs,
			DegradedSlowdown:    rep.DegradedSlowdown,
			ReplanSpeedup:       rep.ReplanSpeedup,
			ReplanDPEvaluations: rep.ReplanEvaluations,
		}
		res.evaluations += rep.ReplanEvaluations
	}
	return res, nil
}
