package lancet_test

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestHintedPlansGolden pins what warm-started plans choose and cost: for
// GPT2-S, GPT2-L and ViT-S on 16×V100 and 64×V100, each of the twelve
// variants is planned once per other variant, hinted by that variant's cold
// plan, and the hinted plan's pipelines, DP evaluations and PredictUs go
// into a SHA-256 per model and fleet (792 hinted plans). The hint's skip
// certificate assumes a unimodal span-vs-k curve (DESIGN.md §14), so some
// hinted plans differ from their cold plan; the hash pins those too.
func TestHintedPlansGolden(t *testing.T) {
	golden := map[[2]string]string{
		{"gpt2-s", "v100x16"}: "bdb678a6a8a3e0c73b81c78e434b32df05a3fa8c57e4141b5d5688ef3f4a37fc",
		{"gpt2-s", "v100x64"}: "13cd0ca540a31dca4726939e212f0ea5d1254bb2be5ed192e1f6d4e162976800",
		{"gpt2-l", "v100x16"}: "c477861d694aa37249b8531f5a2744188b5c55c07b04730f908408d9af0fbfe3",
		{"gpt2-l", "v100x64"}: "7370ed67ea715e1f70007ce916aa457a78d514b1acfda78852fbfa7d60a8cea2",
		{"vit-s", "v100x16"}:  "d010b5f9b3ad1ed15c9480c0c8814030c552c9833eafc48462a21ba1cb1d5e30",
		{"vit-s", "v100x64"}:  "2375548e797dfe34b1b6f8fa15c54b75ed4ec1332afe7838969a2dc52de32883",
	}
	variants := hintVariants()
	differ := 0
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
			h := sha256.New()
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
					fmt.Fprintf(h, "%v <- %v: %v evals %d predict %v\n", v, donor, p.Pipelines, p.DPEvaluations, pred)
					if !slices.Equal(p.Pipelines, cold[i].Pipelines) || pred != coldUs[i] {
						differ++
					}
				}
			}
			key := [2]string{m, f}
			if got, want := hex.EncodeToString(h.Sum(nil)), golden[key]; got != want {
				t.Errorf("%s %s: hinted plans hash %s, want %s", m, f, got, want)
			}
		}
	}
	t.Logf("%d hinted plans differ from their cold plan", differ)
}
