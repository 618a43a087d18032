package experiments

import (
	"fmt"

	"lancet"
)

func init() {
	Register(Experiment{
		Name: "skew_planning", Order: 135,
		Desc: "uniform-planned vs skew-planned iteration time across Zipf alpha",
		Run:  SkewPlanning,
	})
}

// SkewPlanning is the headline number of skew-aware planning (DESIGN.md
// §10): for each Zipf exponent, the same skewed workload is planned twice —
// once by a planner that knows the routed volume but assumes it is spread
// uniformly over device pairs (View.UniformRouting), once by the planner
// fed the real traffic matrix from the functional gate — and both plans are
// replayed in the same skewed simulation. The speedup column is what
// knowing the traffic *shape* buys; it grows with alpha as the hot device's
// ingress diverges from the uniform assumption.
func SkewPlanning(p Params) (*Table, error) {
	t := &Table{
		ID:    "skew_planning",
		Title: "Skew-aware vs skew-blind planning (16 V100 GPUs, GPT2-S-MoE, Switch gate)",
		Note: "Both planners know the routed payload volume; only the skew-aware one " +
			"knows its per-pair distribution. Plans are replayed under the same skewed " +
			"traffic (mean of 3 seeds). Pipeline columns show the plans actually differ.",
		Header: []string{"Skew", "Uniform-planned (ms)", "Skew-planned (ms)",
			"Pipelines (blind/aware)", "Speedup"},
	}
	alphas := []float64{0.5, 1.0, 1.5, 2.0}
	if p.Quick {
		alphas = []float64{1.0, 2.0}
	}
	for _, alpha := range alphas {
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
		if err != nil {
			return nil, err
		}
		sess.WorkloadSkew = alpha
		row, _, err := blindVsAware(sess, lancet.Options{}, lancet.View.UniformRouting, fmt.Sprintf("%.1f", alpha))
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}
