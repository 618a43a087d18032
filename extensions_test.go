package lancet

import (
	"strings"
	"testing"
)

func TestSharedExpertIncreasesOverlap(t *testing.T) {
	plain := GPT2SMoE(0)
	shared := plain
	shared.SharedExpert = true
	cl := MustCluster("V100", 16)
	run := func(cfg ModelConfig) *Report {
		sess, err := NewSession(cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sess.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p.MustSimulate(4)
	}
	rp, rs := run(plain), run(shared)
	if rs.OverlapMs <= rp.OverlapMs {
		t.Errorf("shared expert should raise overlap: %.1f vs %.1f ms", rs.OverlapMs, rp.OverlapMs)
	}
	if rs.NonOverlappedA2AMs >= rp.NonOverlappedA2AMs {
		t.Errorf("shared expert should hide more a2a: %.1f vs %.1f ms",
			rs.NonOverlappedA2AMs, rp.NonOverlappedA2AMs)
	}
}

func TestPrioritizeAllToAllIsSafe(t *testing.T) {
	s := newTestSession(t)
	plain, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	prio, err := s.Lancet(Options{PrioritizeAllToAll: true})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := plain.MustSimulate(6), prio.MustSimulate(6)
	// The pass must never cost more than a small scheduling epsilon.
	if p1.IterationMs > p0.IterationMs*1.02 {
		t.Errorf("comm priority pass regressed iteration: %.1f -> %.1f ms",
			p0.IterationMs, p1.IterationMs)
	}
}

func TestExpertChoiceGateRestrictsLikeBPR(t *testing.T) {
	cfg := GPT2SMoE(0)
	cfg.Gate = GateExpertChoice
	s, err := NewSession(cfg, MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	raf, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MustSimulate(1).IterationMs >= raf.MustSimulate(1).IterationMs {
		t.Error("Lancet with expert-choice gating should still beat the baseline")
	}
	res, err := VerifyGateEquivalence(GateExpertChoice, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartialBatchSafe || res.OutputsIdentical {
		t.Error("expert choice must not survive batch splitting")
	}
}

func TestRhoFallbackOnTightMemory(t *testing.T) {
	// Shrink device memory until partition staging would not fit; rho must
	// halve rather than OOM.
	cl := MustCluster("V100", 16)
	sess, err := NewSession(GPT2SMoE(0), cl)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sess.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.RhoUsed != 8 {
		t.Fatalf("ample memory should keep rho=8, got %d", full.RhoUsed)
	}

	tight := cl
	// Footprint is ~10.89e9 bytes; 10.3 GiB leaves less headroom than the
	// chosen pipelines' staging buffers need, forcing the rho fallback.
	tight.Node.GPU.MemGB = 10.3
	sessT, err := NewSession(GPT2SMoE(0), tight)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := sessT.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reduced.RhoUsed >= full.RhoUsed {
		t.Errorf("tight memory should reduce rho below %d, got %d", full.RhoUsed, reduced.RhoUsed)
	}
	for _, in := range reduced.Graph.Instrs {
		if in.NumParts > reduced.RhoUsed {
			t.Errorf("instance %s exceeds reduced rho: %d > %d", in.Name, in.NumParts, reduced.RhoUsed)
		}
	}
}

func TestSimulateNStats(t *testing.T) {
	s := newTestSession(t)
	plan, err := s.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	st, err := plan.SimulateN(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 8 {
		t.Errorf("Runs = %d", st.Runs)
	}
	if st.StdMs <= 0 {
		t.Error("different seeds must produce variance")
	}
	if st.MinMs > st.MeanMs || st.MeanMs > st.MaxMs {
		t.Errorf("ordering violated: min %v mean %v max %v", st.MinMs, st.MeanMs, st.MaxMs)
	}
	if st.StdMs > st.MeanMs*0.1 {
		t.Errorf("std %v implausibly large vs mean %v", st.StdMs, st.MeanMs)
	}
	if d := st.MeanReport.IterationMs - st.MeanMs; d > 1e-9 || d < -1e-9 {
		t.Error("mean report iteration must equal MeanMs")
	}
	// Deterministic for the same base seed.
	st2, err := plan.SimulateN(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanMs != st2.MeanMs || st.StdMs != st2.StdMs {
		t.Error("SimulateN must be reproducible")
	}
}

func TestWorkloadSkewDegradesIrregularAdvantage(t *testing.T) {
	run := func(skew float64) (lanA2A, rafA2A float64) {
		sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
		if err != nil {
			t.Fatal(err)
		}
		sess.WorkloadSkew = skew
		raf, err := sess.Baseline(FrameworkRAF)
		if err != nil {
			t.Fatal(err)
		}
		lan, err := sess.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		return lan.MustSimulate(3).AllToAllMs, raf.MustSimulate(3).AllToAllMs
	}
	lanBal, rafBal := run(0)
	lanSkew, rafSkew := run(2.0)
	// Padded baselines are skew-insensitive.
	if d := rafSkew - rafBal; d > 1 || d < -1 {
		t.Errorf("RAF a2a moved under skew: %.1f -> %.1f ms", rafBal, rafSkew)
	}
	// The irregular a2a loses (most of) its padding advantage under skew.
	if lanSkew <= lanBal {
		t.Errorf("skew should slow the irregular a2a: %.1f -> %.1f ms", lanBal, lanSkew)
	}
	// But never beyond the padded bound (plus jitter/size-exchange slack).
	if lanSkew > rafSkew*1.05 {
		t.Errorf("irregular a2a %.1f ms exceeds padded bound %.1f ms", lanSkew, rafSkew)
	}
}

func TestFasterMoEBaselineGainsUnderSkew(t *testing.T) {
	run := func(skew float64) (fm, tut float64) {
		sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
		if err != nil {
			t.Fatal(err)
		}
		sess.WorkloadSkew = skew
		f, err := sess.Baseline(FrameworkFasterMoE)
		if err != nil {
			t.Fatal(err)
		}
		tu, err := sess.Baseline(FrameworkTutel)
		if err != nil {
			t.Fatal(err)
		}
		return f.MustSimulate(2).IterationMs, tu.MustSimulate(2).IterationMs
	}
	fmBal, tutBal := run(0)
	fmSkew, tutSkew := run(2.0)
	// Balanced: shadowing idle, FasterMoE ~ Tutel.
	if d := fmBal/tutBal - 1; d > 0.05 || d < -0.05 {
		t.Errorf("balanced FasterMoE %.1f should track Tutel %.1f", fmBal, tutBal)
	}
	// Skewed: shadowing must pull ahead of Tutel.
	if fmSkew >= tutSkew {
		t.Errorf("skewed FasterMoE %.1f should beat Tutel %.1f", fmSkew, tutSkew)
	}
}

func TestSkewPlannedBeatsUniformPlanned(t *testing.T) {
	// The acceptance bar of skew-aware planning: under Zipf routing, the
	// plan priced on the real traffic matrix must beat the plan priced on a
	// uniform matrix of the same routed volume, replayed in the same
	// skewed simulation. Averaged over seeds so per-op jitter cannot flip
	// the comparison.
	for _, alpha := range []float64{1.0, 2.0} {
		sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
		if err != nil {
			t.Fatal(err)
		}
		sess.WorkloadSkew = alpha
		blind, err := sess.Lancet(Options{View: View.UniformRouting})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := sess.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := blind.SimulateN(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := aware.SimulateN(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ra.MeanMs >= rb.MeanMs {
			t.Errorf("alpha=%g: skew-planned %.2f ms should beat uniform-planned %.2f ms",
				alpha, ra.MeanMs, rb.MeanMs)
		}
		// The replayed irregular durations must be visible in the breakdown.
		if ra.MeanReport.IrregularA2AMs <= 0 {
			t.Error("skewed replay should report irregular a2a time")
		}
	}
}

func TestHotExpertWorkloadEndToEnd(t *testing.T) {
	sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	sess.WorkloadHotExpert = 0.5
	prof, err := sess.RoutingProfile()
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("hot-expert workload must produce a routing profile")
	}
	// Capacity caps how hot the functional gate can run (overflow drops),
	// so the ceiling is well below the requested 0.5 — but the ingress
	// share must still clearly exceed the uniform 1/16.
	if share := prof.MaxIngressShare(); share < 2.0/16 {
		t.Errorf("hot-expert ingress share %.3f, want at least double the uniform 1/16", share)
	}
	plan, err := sess.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := plan.MustSimulate(1)
	if r.IrregularA2AMs <= 0 {
		t.Error("hot-expert replay should report irregular a2a time")
	}

	// The two parametric workloads are exclusive: every call that routes a
	// session with both set fails, naming both fields, instead of silently
	// routing one of them.
	sess.WorkloadSkew = 1.2
	calls := map[string]func() error{
		"Lancet":              func() error { _, err := sess.Lancet(Options{}); return err },
		"Baseline(fastermoe)": func() error { _, err := sess.Baseline(FrameworkFasterMoE); return err },
		"RoutingProfile":      func() error { _, err := sess.RoutingProfile(); return err },
	}
	for name, call := range calls {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "WorkloadSkew") || !strings.Contains(err.Error(), "WorkloadHotExpert") {
			t.Errorf("%s with both workloads set: err = %v, want one naming WorkloadSkew and WorkloadHotExpert", name, err)
		}
	}
}

func TestViTClassifierEndToEnd(t *testing.T) {
	sess, err := NewSession(ViTSMoE(0), MustCluster("A100", 16))
	if err != nil {
		t.Fatal(err)
	}
	raf, err := sess.Baseline(FrameworkRAF)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := sess.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := raf.MustSimulate(1), lan.MustSimulate(1)
	if r1.IterationMs >= r0.IterationMs {
		t.Errorf("Lancet should speed up ViT-MoE: %.1f -> %.1f ms", r0.IterationMs, r1.IterationMs)
	}
	// BPR restricts partitioning to after the MoE layer; pipelines still
	// form.
	if len(lan.Pipelines) == 0 {
		t.Error("expected pipelines on the vision model")
	}
}

func TestTopologyPlannedBeatsFlatPlanned(t *testing.T) {
	// The acceptance bar of topology-aware planning (DESIGN.md §11): on an
	// oversubscribed fabric, the plan priced on the real hierarchy must
	// beat the plan priced flat, replayed in the same hierarchical
	// simulation. GroupUs is pinned so both planners cut identical DP
	// groups and only pricing knowledge differs.
	for _, oversub := range []float64{2, 8} {
		cluster, err := MustCluster("V100", 16).WithTopology(Topology{NodesPerRack: 1, Oversubscription: oversub})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(GPT2SMoE(0), cluster)
		if err != nil {
			t.Fatal(err)
		}
		blind, err := sess.Lancet(Options{View: View.Flat, GroupUs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := sess.Lancet(Options{GroupUs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := blind.SimulateN(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := aware.SimulateN(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ra.MeanMs >= rb.MeanMs {
			t.Errorf("oversub=%g: topology-planned %.2f ms should beat flat-planned %.2f ms",
				oversub, ra.MeanMs, rb.MeanMs)
		}
		// The blind planner schedules less dW under the all-to-alls it
		// believes are short.
		if aware.DWOverlapUs <= blind.DWOverlapUs {
			t.Errorf("oversub=%g: aware dW overlap %.1f us should exceed blind %.1f us",
				oversub, aware.DWOverlapUs, blind.DWOverlapUs)
		}
		// The replayed tier breakdown attributes the a2a time to the spine.
		rep := aware.MustSimulate(1)
		if rep.A2ABoundSpineMs <= 0 {
			t.Error("oversubscribed replay should report spine-bound a2a time")
		}
		if rep.A2ABoundSpineMs < rep.A2ABoundNICMs {
			t.Errorf("spine bucket %.1f ms should dominate nic bucket %.1f ms on a per-node-rack fabric",
				rep.A2ABoundSpineMs, rep.A2ABoundNICMs)
		}
	}
}

// heteroTestCluster builds an aA100 + vV100 mixed fleet.
func heteroTestCluster(t *testing.T, a, v int) Cluster {
	t.Helper()
	fast, err := ClassForGPU("A100", a)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ClassForGPU("V100", v)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewHeteroCluster(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHeteroPlannedBeatsUniformPlanned(t *testing.T) {
	// The acceptance bar of heterogeneity-aware planning (DESIGN.md §12):
	// on a mixed fleet, the plan priced at the slowest participating class
	// must beat the plan priced for the fast base class, replayed on the
	// same mixed fleet. Averaged over seeds so per-op jitter cannot flip
	// the comparison.
	for _, mix := range [][2]int{{2, 2}, {3, 3}} {
		sess, err := NewSession(GPT2SMoE(0), heteroTestCluster(t, mix[0], mix[1]))
		if err != nil {
			t.Fatal(err)
		}
		blind, err := sess.Lancet(Options{View: View.UniformHardware})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := sess.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := blind.SimulateN(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := aware.SimulateN(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ra.MeanMs >= rb.MeanMs {
			t.Errorf("mix %dxA100+%dxV100: hetero-planned %.2f ms should beat uniform-planned %.2f ms",
				mix[0], mix[1], ra.MeanMs, rb.MeanMs)
		}
		// The replay attributes the compute lag to the slow class on both
		// plans — the straggler breakdown is a property of the fleet, not
		// of planner awareness.
		for name, rep := range map[string]*ReportStats{"blind": rb, "aware": ra} {
			lag := rep.MeanReport.StragglerClassMs["V100"]
			if lag <= 0 || lag >= rep.MeanMs {
				t.Errorf("%s replay: V100 straggler %.2f ms out of range (iter %.2f ms)",
					name, lag, rep.MeanMs)
			}
		}
	}
}

func TestUniformHardwarePlansUnchanged(t *testing.T) {
	// The degenerate single-class spelling of a uniform fleet must
	// reproduce the uniform predictions within 2% (they share the closed
	// forms exactly; the tolerance guards the pin).
	sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sess.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra := a.MustSimulate(3)

	nc, err := ClassForGPU("V100", 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewHeteroCluster(nc)
	if err != nil {
		t.Fatal(err)
	}
	sessSingle, err := NewSession(GPT2SMoE(0), single)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sessSingle.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs := ps.MustSimulate(3)
	if rel := rs.IterationMs/ra.IterationMs - 1; rel > 0.02 || rel < -0.02 {
		t.Errorf("single-class cluster %.2f ms deviates from uniform %.2f ms by %.1f%%",
			rs.IterationMs, ra.IterationMs, rel*100)
	}
}

func TestParseClasses(t *testing.T) {
	classes, err := ParseClasses("2xA100+1xV100")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || classes[0].Name != "A100" || classes[0].Count != 2 ||
		classes[1].Name != "V100" || classes[1].Count != 1 {
		t.Errorf("ParseClasses = %+v", classes)
	}
	if _, err := ParseClasses("2xA100, 1xV100"); err != nil {
		t.Errorf("comma-separated spelling should parse: %v", err)
	}
	for _, bad := range []string{"", "A100", "0xA100", "-1xV100", "2xH100", "x"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Errorf("ParseClasses(%q) should error", bad)
		}
	}
}
