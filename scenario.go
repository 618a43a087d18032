package lancet

import (
	"fmt"
	"math"
	"slices"
)

// scenarioSimRuns is the seeded-iteration count every scenario metric
// averages over: enough to smooth per-iteration jitter, cheap enough for
// the serving layer's what-if path.
const scenarioSimRuns = 3

// NodeLossReport is the outcome of a node-loss what-if (DESIGN.md §17): the
// stale plan replayed on the degraded fleet versus a warm-started re-plan,
// with the intact fleet as the reference. All latencies are means over
// scenarioSimRuns seeded iterations, so identical inputs reproduce
// identical reports.
type NodeLossReport struct {
	// LostNodes is the sorted, deduplicated list of dropped global node
	// indices.
	LostNodes []int
	// LostGPUs and SurvivorGPUs decompose the fleet after the loss.
	LostGPUs     int
	SurvivorGPUs int
	// IntactMs is the base plan's iteration time on the intact fleet.
	IntactMs float64
	// DegradedMs replays the stale plan's pipelines verbatim on the
	// survivors (Options.FixedPipelines), with the per-GPU batch scaled up
	// so the survivors still carry at least the intact fleet's global
	// token budget.
	DegradedMs float64
	// ReplannedMs is a fresh plan for the degraded fleet, warm-started
	// from the stale plan's pipelines (Options.Hint).
	ReplannedMs float64
	// DegradedSlowdown is DegradedMs / IntactMs — the price of losing the
	// nodes without re-planning.
	DegradedSlowdown float64
	// ReplanSpeedup is DegradedMs / ReplannedMs — what re-planning buys
	// back on the degraded fleet.
	ReplanSpeedup float64
	// ReplanEvaluations and ColdEvaluations are the warm-started and cold
	// re-plan's partition-DP evaluation counts — the re-plan cost the
	// warm start cuts (DESIGN.md §14).
	ReplanEvaluations int
	ColdEvaluations   int

	// Base, Degraded and Replanned expose the three underlying plans.
	Base      *Plan
	Degraded  *Plan
	Replanned *Plan
}

// NodeLoss answers the node-loss what-if for the lost global node indices
// (any order, duplicates allowed): it drops those nodes from the session's
// cluster, replays the base plan's pipelines verbatim on the degraded
// fleet, re-plans warm-started from those same pipelines, and reports the
// three latencies plus the re-plan's DP cost (DESIGN.md §17). The degraded
// session's per-GPU batch is scaled up by ceil(intact GPUs / survivor GPUs)
// so the survivors carry at least the intact fleet's global token budget —
// losing nodes can therefore never predict faster than the intact fleet.
// Every plan uses opts, with Options.View re-derived on the degraded
// session. base, when non-nil, is a plan previously computed from this
// session with the same options; nil plans it here. Sessions running a
// streamed workload profile are rejected: the histogram is shaped for the
// intact device count. Losing zero nodes degenerates to an exact replay:
// all three latencies coincide.
func (s *Session) NodeLoss(base *Plan, lost []int, opts Options, seed int64) (*NodeLossReport, error) {
	if s.streamed.Load() != nil {
		return nil, fmt.Errorf("lancet: node-loss what-if is not supported with a streamed workload profile (histogram is shaped for the intact fleet)")
	}
	lost = slices.Compact(slices.Sorted(slices.Values(lost)))
	baseOpts := opts
	baseOpts.FixedPipelines = nil
	if base == nil {
		var err error
		base, err = s.Lancet(baseOpts)
		if err != nil {
			return nil, fmt.Errorf("lancet: node-loss base plan: %w", err)
		}
	}
	dc, err := s.Cluster.RemoveNodes(lost)
	if err != nil {
		return nil, fmt.Errorf("lancet: node-loss: %w", err)
	}
	intactGPUs := s.Cluster.TotalGPUs()
	survivorGPUs := dc.TotalGPUs()
	cfg := s.Config
	cfg.BatchPerGPU = int(math.Ceil(float64(cfg.BatchPerGPU*intactGPUs) / float64(survivorGPUs)))
	ds, err := NewSession(cfg, dc)
	if err != nil {
		return nil, fmt.Errorf("lancet: node-loss degraded session: %w", err)
	}
	ds.WorkloadSkew = s.WorkloadSkew
	ds.WorkloadHotExpert = s.WorkloadHotExpert

	repOpts := baseOpts
	repOpts.Hint = nil
	repOpts.FixedPipelines = base.Pipelines
	degraded, err := ds.Lancet(repOpts)
	if err != nil {
		return nil, fmt.Errorf("lancet: node-loss degraded replay: %w", err)
	}
	warmOpts := baseOpts
	warmOpts.Hint = base.Pipelines
	replanned, err := ds.Lancet(warmOpts)
	if err != nil {
		return nil, fmt.Errorf("lancet: node-loss re-plan: %w", err)
	}
	cold, err := ds.Lancet(baseOpts)
	if err != nil {
		return nil, fmt.Errorf("lancet: node-loss cold re-plan: %w", err)
	}

	rep := &NodeLossReport{
		LostNodes:         lost,
		LostGPUs:          intactGPUs - survivorGPUs,
		SurvivorGPUs:      survivorGPUs,
		ReplanEvaluations: replanned.DPEvaluations,
		ColdEvaluations:   cold.DPEvaluations,
		Base:              base,
		Degraded:          degraded,
		Replanned:         replanned,
	}
	for _, m := range []struct {
		plan *Plan
		out  *float64
	}{
		{base, &rep.IntactMs},
		{degraded, &rep.DegradedMs},
		{replanned, &rep.ReplannedMs},
	} {
		st, err := m.plan.SimulateN(scenarioSimRuns, seed)
		if err != nil {
			return nil, fmt.Errorf("lancet: node-loss simulation: %w", err)
		}
		*m.out = st.MeanMs
	}
	if rep.IntactMs > 0 {
		rep.DegradedSlowdown = rep.DegradedMs / rep.IntactMs
	}
	if rep.ReplannedMs > 0 {
		rep.ReplanSpeedup = rep.DegradedMs / rep.ReplannedMs
	}
	return rep, nil
}

// ResizeStep is one fleet size of an elastic-resize sweep: the warm-started
// plan's iteration time, the pipelines it chose (the next step's hint), and
// the warm-vs-cold partition-DP evaluation counts — the re-plan cost curve
// hint chaining flattens (DESIGN.md §17).
type ResizeStep struct {
	GPUs            int
	IterationMs     float64
	Pipelines       []PipelineHint
	WarmEvaluations int
	ColdEvaluations int
}

// ElasticResize grows and shrinks a uniform fleet through the given GPU
// schedule, re-planning at each size warm-started from the previous size's
// chosen pipelines, and reports the per-size latency plus the warm and cold
// DP evaluation counts. The per-GPU batch stays fixed, so the global batch
// scales with the fleet — the elasticity semantics of a data-parallel
// resize. The reported latency is the warm plan's: a hint can change the
// chosen plan (Options.Hint), so it need not equal a cold plan's.
func ElasticResize(cfg ModelConfig, gpuType string, schedule []int, opts Options, seed int64) ([]ResizeStep, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("lancet: empty resize schedule")
	}
	steps := make([]ResizeStep, 0, len(schedule))
	var hint []PipelineHint
	for _, gpus := range schedule {
		cl, err := NewCluster(gpuType, gpus)
		if err != nil {
			return nil, fmt.Errorf("lancet: resize to %d GPUs: %w", gpus, err)
		}
		sess, err := NewSession(cfg, cl)
		if err != nil {
			return nil, fmt.Errorf("lancet: resize to %d GPUs: %w", gpus, err)
		}
		warmOpts := opts
		warmOpts.Hint = hint
		warmOpts.FixedPipelines = nil
		warm, err := sess.Lancet(warmOpts)
		if err != nil {
			return nil, fmt.Errorf("lancet: resize plan at %d GPUs: %w", gpus, err)
		}
		coldOpts := warmOpts
		coldOpts.Hint = nil
		cold, err := sess.Lancet(coldOpts)
		if err != nil {
			return nil, fmt.Errorf("lancet: resize cold plan at %d GPUs: %w", gpus, err)
		}
		st, err := warm.SimulateN(scenarioSimRuns, seed)
		if err != nil {
			return nil, fmt.Errorf("lancet: resize simulation at %d GPUs: %w", gpus, err)
		}
		steps = append(steps, ResizeStep{
			GPUs:            gpus,
			IterationMs:     st.MeanMs,
			Pipelines:       warm.Pipelines,
			WarmEvaluations: warm.DPEvaluations,
			ColdEvaluations: cold.DPEvaluations,
		})
		hint = warm.Pipelines
	}
	return steps, nil
}
