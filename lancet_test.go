package lancet

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"lancet/internal/netsim"
)

// ExampleNewSession builds a session for the paper's default configuration
// and reports what was instantiated. A non-positive batch selects the
// paper's per-GPU batch size for the cluster's GPU type.
func ExampleNewSession() {
	sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		panic(err)
	}
	fmt.Printf("batch %d, %d experts, capacity %d\n",
		sess.Config.BatchPerGPU, sess.Built.TotalExperts, sess.Built.CapacityC)
	// Output: batch 16, 32 experts, capacity 320
}

// ExampleSession_Baseline plans the model under a comparison framework.
// Tutel searches its all-to-all overlap degree over {1, 2, 4, 8} using the
// deterministic predictor, so the chosen degree is stable.
func ExampleSession_Baseline() {
	sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		panic(err)
	}
	plan, err := sess.Baseline(FrameworkTutel)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s picked overlap degree %d\n", plan.Name, plan.TutelDegree)
	// Output: Tutel picked overlap degree 2
}

func newTestSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionDefaults(t *testing.T) {
	s := newTestSession(t)
	if s.Config.BatchPerGPU != 16 {
		t.Errorf("paper batch size on V100 should be 16, got %d", s.Config.BatchPerGPU)
	}
	if s.Built.TotalExperts != 32 {
		t.Errorf("16 GPUs x 2 experts = 32, got %d", s.Built.TotalExperts)
	}
}

func TestLancetBeatsAllBaselines(t *testing.T) {
	s := newTestSession(t)
	lan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lanMs := lan.MustSimulate(1).IterationMs
	for _, fw := range []string{FrameworkDeepSpeed, FrameworkRAF, FrameworkTutel} {
		p, err := s.Baseline(fw)
		if err != nil {
			t.Fatal(err)
		}
		r := p.MustSimulate(1)
		if lanMs >= r.IterationMs {
			t.Errorf("Lancet (%.1f ms) not faster than %s (%.1f ms)", lanMs, fw, r.IterationMs)
		}
	}
}

func TestSpeedupInPaperRange(t *testing.T) {
	s := newTestSession(t)
	lan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tut, err := s.Baseline(FrameworkTutel)
	if err != nil {
		t.Fatal(err)
	}
	speedup := tut.MustSimulate(1).IterationMs / lan.MustSimulate(1).IterationMs
	// Paper: 1.1x - 1.3x over the best baseline. Allow generous margins for
	// the simulated substrate, but the magnitude must be plausible.
	if speedup < 1.02 || speedup > 1.8 {
		t.Errorf("speedup over Tutel = %.2fx, outside plausible band", speedup)
	}
}

func TestTutelBeatsSequential(t *testing.T) {
	s := newTestSession(t)
	tut, err := s.Baseline(FrameworkTutel)
	if err != nil {
		t.Fatal(err)
	}
	raf, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	if tut.MustSimulate(1).IterationMs >= raf.MustSimulate(1).IterationMs {
		t.Error("Tutel's a2a/expert overlap should beat sequential RAF")
	}
	if tut.TutelDegree < 2 {
		t.Errorf("Tutel degree search picked %d; expected overlap to pay off", tut.TutelDegree)
	}
}

func TestUnknownFramework(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Baseline("megatron"); err == nil {
		t.Error("unknown framework must error")
	}
}

func TestPredictionAccuracy(t *testing.T) {
	// Fig. 14: predicted vs simulated-actual iteration time within a few
	// percent.
	s := newTestSession(t)
	for _, fw := range []string{FrameworkRAF, FrameworkTutel, FrameworkLancet} {
		p, err := s.Baseline(fw)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := p.PredictUs()
		if err != nil {
			t.Fatal(err)
		}
		act := p.MustSimulate(7).IterationMs * 1000
		rel := math.Abs(pred-act) / act
		if rel > 0.15 {
			t.Errorf("%s: prediction error %.1f%% too large", fw, rel*100)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	// Fig. 16: full <= each single optimization <= baseline.
	s := newTestSession(t)
	full, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	noDW, err := s.Lancet(Options{DisableDWSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	noPipe, err := s.Lancet(Options{DisablePartition: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	fullMs := full.MustSimulate(3).IterationMs
	noDWMs := noDW.MustSimulate(3).IterationMs
	noPipeMs := noPipe.MustSimulate(3).IterationMs
	baseMs := base.MustSimulate(3).IterationMs
	if fullMs >= noDWMs || fullMs >= noPipeMs {
		t.Errorf("full (%0.1f) should beat ablations (-dW %0.1f, -pipe %0.1f)", fullMs, noDWMs, noPipeMs)
	}
	if noDWMs >= baseMs || noPipeMs >= baseMs {
		t.Errorf("each single optimization should beat baseline %0.1f (-dW %0.1f, -pipe %0.1f)",
			baseMs, noDWMs, noPipeMs)
	}
}

func TestLancetNonOverlappedCommReduction(t *testing.T) {
	s := newTestSession(t)
	lan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	raf, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	l, r := lan.MustSimulate(5), raf.MustSimulate(5)
	reduction := 1 - l.NonOverlappedA2AMs/r.NonOverlappedA2AMs
	if reduction < 0.3 {
		t.Errorf("non-overlapped a2a reduction %.0f%%, want >= 30%%", reduction*100)
	}
}

func TestIrregularPayloadsShrinkLancetComm(t *testing.T) {
	// Lancet's irregular all-to-all drops padding: its total a2a busy time
	// must be below RAF's for the same model.
	s := newTestSession(t)
	lan, err := s.Lancet(Options{DisablePartition: true, DisableDWSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	raf, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	if l, r := lan.MustSimulate(2).AllToAllMs, raf.MustSimulate(2).AllToAllMs; l >= r {
		t.Errorf("irregular a2a (%.1f ms) should be cheaper than padded (%.1f ms)", l, r)
	}
}

func TestBPRGateRestrictsButStillGains(t *testing.T) {
	cfg := GPT2SMoE(0)
	cfg.Gate = GateBatchPriority
	s, err := NewSession(cfg, MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	lan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	raf, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	if lan.MustSimulate(1).IterationMs >= raf.MustSimulate(1).IterationMs {
		t.Error("Lancet with BPR gating should still beat the baseline (Fig. 12)")
	}
}

func TestRoutingProfileSaneAndCached(t *testing.T) {
	s := newTestSession(t)
	p, err := s.profile(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.shares) != 4 {
		t.Fatalf("got %d micro shares, want 4", len(p.shares))
	}
	total := 0.0
	for _, f := range p.shares {
		if f < 0 || f > 1 {
			t.Errorf("share %v out of [0,1]", f)
		}
		total += f
	}
	// Total routed tokens never exceed the padded buffer.
	if total > 1.0001 {
		t.Errorf("micro shares sum to %v > 1", total)
	}
	// The proxy routes what its gate sends.
	stats, err := proxyKey{devices: 16, expertsPerGPU: s.Config.ExpertsPerGPU, k: 4,
		gate: s.Config.Gate, capacityFactor: s.Config.CapacityFactor}.route()
	if err != nil {
		t.Fatal(err)
	}
	routed := int64(0)
	for _, row := range stats.SendTokens {
		for _, c := range row {
			routed += int64(c)
		}
	}
	if routed == 0 || len(stats.SendTokens) != p.devices || routed != p.routed {
		t.Errorf("profile routes %d tokens on %d devices, its gate sends %d on %d",
			p.routed, p.devices, routed, len(stats.SendTokens))
	}
	// A streamed profile routes its send matrix with every destination
	// clipped at its capacity: Zipf 1.2 clips the hottest, a uniform
	// profile none.
	for _, c := range []struct {
		wp      *netsim.RoutingProfile
		clipped bool
	}{
		{netsim.ZipfProfile(16, 1.2), true},
		{netsim.UniformProfile(16), false},
	} {
		counts := c.wp.Counts()
		offered, ingress := int64(0), make([]float64, len(counts))
		for _, row := range counts {
			for j, v := range row {
				offered += v
				ingress[j] += float64(v)
			}
		}
		capPer := float64(offered) * s.Config.CapacityFactor / float64(len(counts))
		want, clipped := int64(0), false
		for _, row := range counts {
			for j, v := range row {
				d := float64(v)
				if ingress[j] > capPer {
					d, clipped = d*capPer/ingress[j], true
				}
				want += int64(math.Round(d))
			}
		}
		sp := syntheticProfile(c.wp, s.Config.CapacityFactor)
		if clipped != c.clipped || want == 0 || sp.routed != want {
			t.Errorf("streamed profile routes %d tokens, its send matrix clipped (%v) sums to %d", sp.routed, clipped, want)
		}
		if (sp.net != c.wp) != clipped {
			t.Errorf("streamed profile prices a new matrix %v, clipped %v", sp.net != c.wp, clipped)
		}
	}
	p2, err := s.profile(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p != p2 {
		t.Error("profile must be cached")
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	s := newTestSession(t)
	p, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.ChromeTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(p.Graph.Instrs) {
		t.Errorf("trace has %d events for %d instrs", len(doc.TraceEvents), len(p.Graph.Instrs))
	}
}

// A Chrome trace renders the iteration Simulate reports: its last span
// ends at Simulate(seed).IterationMs, for Lancet plans (irregular
// all-to-all overrides) and baselines alike, under uniform and skewed
// routing.
func TestChromeTraceMatchesSimulate(t *testing.T) {
	for _, skew := range []float64{0, 1.2} {
		s := newTestSession(t)
		s.WorkloadSkew = skew
		lan, err := s.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		raf, err := s.Baseline(FrameworkRAF)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Plan{lan, raf} {
			const seed = 1
			data, err := p.ChromeTrace(seed)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Phase string  `json:"ph"`
					TS    float64 `json:"ts"`
					Dur   float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			lastUs := 0.0
			for _, e := range doc.TraceEvents {
				if e.Phase == "X" {
					lastUs = math.Max(lastUs, e.TS+e.Dur)
				}
			}
			want := p.MustSimulate(seed).IterationMs
			if got := lastUs / 1000; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s skew %v: trace ends at %.4f ms, Simulate(%d) reports %.4f ms",
					p.Framework, skew, got, seed, want)
			}
		}
	}
}

func TestDeepSpeedOOMOnA100GPT2S(t *testing.T) {
	// Paper Sec. 7.1: DeepSpeed's higher memory footprint OOMs for
	// GPT2-S-MoE on A100 (batch 24) while the others fit.
	s, err := NewSession(GPT2SMoE(0), MustCluster("A100", 16))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Baseline(FrameworkDeepSpeed)
	if err != nil {
		t.Fatal(err)
	}
	tut, err := s.Baseline(FrameworkTutel)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.OOM {
		t.Error("DeepSpeed should OOM on A100 GPT2-S-MoE (batch 24)")
	}
	if tut.OOM {
		t.Error("Tutel should fit on A100 GPT2-S-MoE")
	}
	// And on V100 (batch 16) DeepSpeed fits.
	sv := newTestSession(t)
	dsv, err := sv.Baseline(FrameworkDeepSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if dsv.OOM {
		t.Error("DeepSpeed should fit on V100 GPT2-S-MoE (batch 16)")
	}
}

func TestOptimizationTimeScalesWithLayers(t *testing.T) {
	sS := newTestSession(t)
	pS, err := sS.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sL, err := NewSession(GPT2LMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	pL, err := sL.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pL.DPEvaluations <= pS.DPEvaluations {
		t.Errorf("GPT2-L should need more DP evaluations: %d vs %d", pL.DPEvaluations, pS.DPEvaluations)
	}
}
