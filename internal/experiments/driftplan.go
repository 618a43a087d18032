package experiments

import (
	"fmt"
	"math"

	"lancet"
	"lancet/internal/netsim"
)

func init() {
	Register(Experiment{
		Name: "drift_planning", Order: 138,
		Desc: "always/never/threshold re-planning under wandering Zipf traffic",
		Run:  DriftPlanning,
	})
}

// DriftPlanning replays the drift loop's policy question offline (DESIGN.md
// §16): traffic whose Zipf exponent wanders out to a skewed regime and back
// is streamed through the serving layer's exponential decay, and three
// re-planning policies ride the same schedule. never-replan keeps the plan
// built for the opening traffic; always-replan re-runs the DP whenever the
// decayed fingerprint moves (every step, once the exponent starts walking);
// threshold-replan re-plans only when the normalized L1 distance from the
// profile the live plan was built for exceeds the serving default. Each step
// simulates the policy's current plan under the *current* traffic: a plan
// keeps the workload it was planned for, so a stale plan's pipelines are
// replayed under the step's profile (Options.FixedPipelines), the
// stale-while-revalidate serving path. The mean iteration column is what
// each policy's plan actually delivers, and the re-plans column is what it
// costs in DP runs.
func DriftPlanning(p Params) (*Table, error) {
	steps := 20
	if p.Quick {
		steps = 10
	}
	const (
		devices   = 16
		halfLife  = 4
		threshold = 0.1
		peakAlpha = 2.0
	)

	// The traffic schedule: per-step gate counts with a triangular exponent
	// walk 0 -> peakAlpha -> 0, folded through the same decayed accumulator
	// the /v1/routing loop maintains, so each step's profile is a mixture of
	// recent history rather than a clean point distribution.
	profiles := make([]*netsim.RoutingProfile, steps)
	acc := netsim.NewDecayedProfile(halfLife)
	for i := range profiles {
		frac := float64(i) / float64(steps-1)
		alpha := peakAlpha * (1 - math.Abs(2*frac-1))
		if err := acc.Ingest(netsim.ZipfProfile(devices, alpha).Counts()); err != nil {
			return nil, err
		}
		q, err := acc.Snapshot()
		if err != nil {
			return nil, err
		}
		profiles[i] = q
	}

	policies := []struct {
		name   string
		replan func(cur, planned *netsim.RoutingProfile) bool
	}{
		{"never-replan", func(cur, planned *netsim.RoutingProfile) bool {
			return false
		}},
		{"always-replan", func(cur, planned *netsim.RoutingProfile) bool {
			return cur.Fingerprint() != planned.Fingerprint()
		}},
		{fmt.Sprintf("threshold-replan (%.2g)", threshold), func(cur, planned *netsim.RoutingProfile) bool {
			return cur.L1Distance(planned) > threshold
		}},
	}

	t := &Table{
		ID:    "drift_planning",
		Title: fmt.Sprintf("Re-planning policy under drifting traffic (16 V100 GPUs, GPT2-S-MoE, %d steps)", steps),
		Note: "Gate traffic wanders alpha 0 -> 2 -> 0 through the serving layer's " +
			"exponential decay; each policy decides per step whether to re-run the " +
			"partition DP, then its current plan is simulated under the step's real " +
			"traffic. Threshold uses the serving default distance.",
		Header: []string{"Policy", "Re-plans", "Mean iteration (ms)", "vs never-replan"},
	}
	var neverMean float64
	for _, pol := range policies {
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", devices))
		if err != nil {
			return nil, err
		}
		var live *lancet.Plan
		var planned *netsim.RoutingProfile
		replans := 0
		total := 0.0
		for i, q := range profiles {
			if err := sess.SetWorkloadProfile(q); err != nil {
				return nil, err
			}
			if live == nil || pol.replan(q, planned) {
				if live, err = sess.Lancet(lancet.Options{}); err != nil {
					return nil, err
				}
				planned = q
				if i > 0 {
					replans++
				}
			}
			plan := live
			if planned != q {
				if plan, err = sess.Lancet(lancet.Options{FixedPipelines: live.Pipelines}); err != nil {
					return nil, err
				}
			}
			r, err := plan.Simulate(17)
			if err != nil {
				return nil, err
			}
			total += r.IterationMs
		}
		mean := total / float64(steps)
		if neverMean == 0 {
			neverMean = mean
		}
		t.AddRow(pol.name, fmt.Sprint(replans),
			fmt.Sprintf("%.1f", mean),
			fmt.Sprintf("%.3fx", neverMean/mean))
	}
	return t, nil
}
