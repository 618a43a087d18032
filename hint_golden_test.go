package lancet_test

import (
	"fmt"
	"slices"
	"testing"

	"lancet"
)

// hintVariant is one planning configuration of the hinted grid: partition
// options under a Zipf routing skew (0 is uniform routing).
type hintVariant struct {
	opts lancet.Options
	zipf float64
}

func (v hintVariant) String() string {
	return fmt.Sprintf("rho %d gamma %g zipf %g", v.opts.MaxPartitions, v.opts.GroupUs, v.zipf)
}

// hintVariants lists the twelve variants: ρ 8, ρ 4, γ 1000 and ρ 16 with
// γ 1000, each under Zipf 0, 0.6 and 1.2.
func hintVariants() []hintVariant {
	var vs []hintVariant
	for _, o := range []lancet.Options{
		{MaxPartitions: 8},
		{MaxPartitions: 4},
		{GroupUs: 1000},
		{MaxPartitions: 16, GroupUs: 1000},
	} {
		for _, z := range []float64{0, 0.6, 1.2} {
			vs = append(vs, hintVariant{o, z})
		}
	}
	return vs
}

// TestHintedPlansGolden is the DP scan of the deprecated Options.Hint: for
// GPT2-S, GPT2-L and ViT-S on 16×V100 and 64×V100, each of the twelve
// variants is planned once per other variant, hinted by that variant's cold
// plan (792 hinted plans), and every hinted plan must be its variant's
// cold plan, the golden: the same pipelines, DP evaluations and PredictUs.
// The DP sweeps every k of every window (DESIGN.md §14), so no hint can
// steer it; the skip the hint once fed chose costlier plans for 24 of these
// pairs.
func TestHintedPlansGolden(t *testing.T) {
	variants := hintVariants()
	scanned := 0
	for _, m := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		for _, f := range []string{"v100x16", "v100x64"} {
			sessions := make(map[float64]*lancet.Session)
			for _, z := range []float64{0, 0.6, 1.2} {
				sess, err := goldenShape{m, f, "uniform"}.session()
				if err != nil {
					t.Fatalf("%s %s: %v", m, f, err)
				}
				sess.WorkloadSkew = z
				sessions[z] = sess
			}
			cold := make([]*lancet.Plan, len(variants))
			coldUs := make([]float64, len(variants))
			for i, v := range variants {
				p, err := sessions[v.zipf].Lancet(v.opts)
				if err != nil {
					t.Fatalf("%s %s %v: %v", m, f, v, err)
				}
				if coldUs[i], err = p.PredictUs(); err != nil {
					t.Fatalf("%s %s %v: %v", m, f, v, err)
				}
				cold[i] = p
			}
			for i, v := range variants {
				for d, donor := range variants {
					if d == i {
						continue
					}
					opts := v.opts
					opts.Hint = cold[d].Pipelines
					p, err := sessions[v.zipf].Lancet(opts)
					if err != nil {
						t.Fatalf("%s %s %v hinted by %v: %v", m, f, v, donor, err)
					}
					pred, err := p.PredictUs()
					if err != nil {
						t.Fatalf("%s %s %v hinted by %v: %v", m, f, v, donor, err)
					}
					scanned++
					if !slices.Equal(p.Pipelines, cold[i].Pipelines) || p.DPEvaluations != cold[i].DPEvaluations || pred != coldUs[i] {
						t.Errorf("%s %s %v hinted by %v: %v, %d evaluations, predicts %v us; cold %v, %d, %v us",
							m, f, v, donor, p.Pipelines, p.DPEvaluations, pred, cold[i].Pipelines, cold[i].DPEvaluations, coldUs[i])
					}
				}
			}
		}
	}
	if scanned != 792 {
		t.Errorf("scanned %d hinted plans, want 792", scanned)
	}
}
