package partition

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/netsim"
)

// dpOracle is the brute-force optimum of Run's DP over the DP's own groups
// (makeGroups): every cover of the groups by windows of at most
// opts.MaxRangeGroups groups, each window kept serial or partitioned at any
// k in 2..min(ρ, refMaxParts). It prices with the references —
// refInferAxes, refPipelineSpan, refBoundaryCostUs and a plain
// per-instruction serial sum — each distinct window once, and uses no
// prefix sums and no resumed simulation.
type dpOracle struct {
	bounds []int
	// prices[[2]int{i, j}][k] is the price of the group window (i, j]
	// kept serial (k = 1) or partitioned k ways; +Inf where k is not a
	// candidate.
	prices map[[2]int][]float64
	// best is the cheapest cover's price and its partitioned windows as
	// (first instruction, last instruction, k).
	best   float64
	ranges [][3]int
}

func newDPOracle(g *ir.Graph, cm *cost.Model, opts Options) *dpOracle {
	opts.fillDefaults()
	pr := cm.NewA2APricer(opts.Profile)
	var fwd []*ir.Instr
	for _, in := range g.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwd = append(fwd, in)
	}
	// The groups are the DP's input, so they come from its own grouping.
	prefix := make([]float64, len(fwd)+1)
	for i, in := range fwd {
		prefix[i+1] = prefix[i] + predictInstr(cm, in, pr, opts.PayloadFraction)
	}
	o := &dpOracle{bounds: makeGroups(prefix, opts.GroupUs, nil), prices: make(map[[2]int][]float64)}
	n := len(o.bounds) - 1

	for i := 0; i < n; i++ {
		for j := i + 1; j <= min(n, i+opts.MaxRangeGroups); j++ {
			w := g.Instrs[o.bounds[i]:o.bounds[j]]
			serial := 0.0
			for _, in := range w {
				serial += predictInstr(cm, in, pr, opts.PayloadFraction)
			}
			p := []float64{math.Inf(1), serial}
			hasA2A := slices.ContainsFunc(w, func(in *ir.Instr) bool { return in.Op == ir.OpAllToAll })
			if asg := refInferAxes(g, w, opts.GatePartialBatch); hasA2A && asg != nil {
				boundary := refBoundaryCostUs(g, cm, o.bounds[i], w, asg)
				for k := 2; k <= min(opts.MaxPartitions, refMaxParts(g, asg)); k++ {
					p = append(p, refPipelineSpan(g, cm, o.bounds[i], w, k, pr, opts.PayloadFraction)+boundary)
				}
			}
			o.prices[[2]int{i, j}] = p
		}
	}

	o.best = math.Inf(1)
	var cover [][3]int // group windows (i, j, k) of the cover so far
	var walk func(i int, us float64)
	walk = func(i int, us float64) {
		if i == n {
			if us < o.best {
				o.best, o.ranges = us, o.partitioned(cover)
			}
			return
		}
		for j := i + 1; j <= min(n, i+opts.MaxRangeGroups); j++ {
			p := o.prices[[2]int{i, j}]
			k := 1
			for kk := 2; kk < len(p); kk++ {
				if p[kk] < p[k] {
					k = kk
				}
			}
			cover = append(cover, [3]int{i, j, k})
			walk(j, us+p[k])
			cover = cover[:len(cover)-1]
		}
	}
	walk(0, 0)
	return o
}

// partitioned lists a cover's partitioned windows as instruction ranges.
func (o *dpOracle) partitioned(cover [][3]int) [][3]int {
	var out [][3]int
	for _, c := range cover {
		if c[2] >= 2 {
			out = append(out, [3]int{o.bounds[c[0]], o.bounds[c[1]] - 1, c[2]})
		}
	}
	return out
}

// price prices a plan given as partitioned instruction ranges on group
// boundaries: each range at its k, every group outside them serial. ok is
// false when a range is not a group window the oracle can price at its k.
func (o *dpOracle) price(ranges [][3]int) (us float64, ok bool) {
	group := make(map[int]int, len(o.bounds))
	for i, b := range o.bounds {
		group[b] = i
	}
	next := 0
	for _, r := range ranges {
		i, iok := group[r[0]]
		j, jok := group[r[1]+1]
		if !iok || !jok || i < next {
			return 0, false
		}
		for ; next < i; next++ {
			us += o.prices[[2]int{next, next + 1}][1]
		}
		p, pok := o.prices[[2]int{i, j}]
		if !pok || r[2] >= len(p) {
			return 0, false
		}
		us += p[r[2]]
		next = j
	}
	for ; next < len(o.bounds)-1; next++ {
		us += o.prices[[2]int{next, next + 1}][1]
	}
	return us, true
}

// TestRunMatchesBruteForceOracle holds Run to the optimum over covers on
// GPT2-S and ViT-S on 16×V100, under uniform routing and under Zipf 1.2
// routing that carries 60% of the padded payload, with a partial-batch
// gate and with BPR, at a γ that cuts about 14 groups: its ForwardUs is
// within 1e-9 relative of the oracle's, and where its ranges and ks differ
// from the oracle's, the oracle prices them within that tolerance too, so
// they differ only on a tie.
func TestRunMatchesBruteForceOracle(t *testing.T) {
	const tol = 1e-9
	cluster := hw.V100Cluster(2)
	decisive, partitioned := 0, 0
	for _, cfg := range []model.Config{model.GPT2SMoE(), model.ViTSMoE()} {
		cfg.BatchPerGPU = cfg.PaperBatchSize("V100")
		b, err := model.Build(cfg, cluster)
		if err != nil {
			t.Fatal(err)
		}
		g := b.Graph
		cm := cost.NewModel(cluster)
		zipf, frac := cappedZipf(t, cluster.TotalGPUs(), 1.2)
		for _, prof := range []*netsim.RoutingProfile{nil, zipf} {
			for _, gatePartial := range []bool{true, false} {
				opts := Options{MaxRangeGroups: 7, GatePartialBatch: gatePartial, Profile: prof}
				if prof != nil {
					opts.PayloadFraction = frac
				}
				opts.GroupUs = forwardUs(g, cm, opts) / 13
				o := newDPOracle(g, cm, opts)
				if n := len(o.bounds) - 1; n > 14 {
					t.Fatalf("%s: %d groups, want at most 14", cfg.Name, n)
				}
				res, err := Run(g, cm, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s zipf1.2=%t partial-batch gate=%t", cfg.Name, prof != nil, gatePartial)
				if math.Abs(res.ForwardUs-o.best) > tol*o.best {
					t.Errorf("%s: Run's forward %v us, oracle %v us", name, res.ForwardUs, o.best)
				}
				got := make([][3]int, len(res.Ranges))
				for i, r := range res.Ranges {
					got[i] = [3]int{r.Start, r.End, r.K}
				}
				if len(got) > 0 {
					partitioned++
				}
				if slices.Equal(got, o.ranges) {
					decisive++
					continue
				}
				if us, ok := o.price(got); !ok || math.Abs(us-o.best) > tol*o.best {
					t.Errorf("%s: Run chose %v (oracle price %v us, ok %t), the oracle %v at %v us",
						name, got, us, ok, o.ranges, o.best)
				}
			}
		}
	}
	if decisive == 0 || partitioned == 0 {
		t.Errorf("%d configurations matched the oracle's ranges, %d partitioned anything; want some of each", decisive, partitioned)
	}
}

// cappedZipf is the routed traffic of Zipf(alpha) gate counts on devices
// devices (see cappedProfile).
func cappedZipf(t *testing.T, devices int, alpha float64) (*netsim.RoutingProfile, float64) {
	t.Helper()
	return cappedProfile(t, netsim.ZipfProfile(devices, alpha))
}

// cappedProfile is the routed traffic of the offered gate counts under a
// capacity factor of 1.25, the form a Lancet session hands the pass: each
// device's ingress clipped at 1.25 times the mean, and the routed share of
// the padded payload.
func cappedProfile(t *testing.T, offeredProfile *netsim.RoutingProfile) (*netsim.RoutingProfile, float64) {
	t.Helper()
	const capacityFactor = 1.25
	counts := offeredProfile.Counts()
	devices := len(counts)
	ingress := make([]float64, devices)
	offered := 0.0
	for _, row := range counts {
		for j, v := range row {
			ingress[j] += float64(v)
			offered += float64(v)
		}
	}
	limit := offered * capacityFactor / float64(devices)
	clipped := make([][]int, devices)
	routed := 0.0
	for i, row := range counts {
		clipped[i] = make([]int, devices)
		for j, v := range row {
			c := float64(v)
			if ingress[j] > limit {
				c *= limit / ingress[j]
			}
			clipped[i][j] = int(math.Round(c))
			routed += float64(clipped[i][j])
		}
	}
	prof, err := netsim.ProfileFromCounts(clipped)
	if err != nil {
		t.Fatal(err)
	}
	return prof, routed / (offered * capacityFactor)
}

// forwardUs is the serial forward time of g under opts' pricing.
func forwardUs(g *ir.Graph, cm *cost.Model, opts Options) float64 {
	opts.fillDefaults()
	pr := cm.NewA2APricer(opts.Profile)
	total := 0.0
	for _, in := range g.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		total += predictInstr(cm, in, pr, opts.PayloadFraction)
	}
	return total
}
