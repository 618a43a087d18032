package lancet

import (
	"reflect"
	"slices"
	"testing"

	"lancet/internal/netsim"
)

// skewedSession builds the canonical scenario fixture: a uniform fleet with
// Zipf-skewed expert traffic — the regime where a node loss changes the
// all-to-all shape enough that re-planning pays.
func skewedSession(t *testing.T, gpuType string, gpus int, skew, hot float64) *Session {
	t.Helper()
	sess, err := NewSession(GPT2SMoE(0), MustCluster(gpuType, gpus))
	if err != nil {
		t.Fatal(err)
	}
	sess.WorkloadSkew = skew
	sess.WorkloadHotExpert = hot
	return sess
}

// TestNodeLossZeroNodesIsExactIdentity pins the degenerate case: losing no
// nodes replays the base plan on the same fleet, so all three latencies and
// all three pipeline sets coincide exactly.
func TestNodeLossZeroNodesIsExactIdentity(t *testing.T) {
	sess := skewedSession(t, "V100", 16, 1.2, 0)
	rep, err := sess.NodeLoss(nil, nil, Options{}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostGPUs != 0 || rep.SurvivorGPUs != 16 {
		t.Fatalf("lost/survivor GPUs = %d/%d, want 0/16", rep.LostGPUs, rep.SurvivorGPUs)
	}
	if rep.IntactMs != rep.DegradedMs || rep.IntactMs != rep.ReplannedMs {
		t.Errorf("zero-loss latencies differ: intact %v, degraded %v, replanned %v",
			rep.IntactMs, rep.DegradedMs, rep.ReplannedMs)
	}
	if !reflect.DeepEqual(rep.Base.Pipelines, rep.Degraded.Pipelines) ||
		!reflect.DeepEqual(rep.Base.Pipelines, rep.Replanned.Pipelines) {
		t.Error("zero-loss plans chose different pipelines")
	}
}

// TestNodeLossNeverPredictsFaster pins the batch-rescaling contract: the
// survivors carry at least the intact fleet's global token budget, so a
// degraded fleet never reports a faster iteration than the intact one —
// for the replay and the re-plan alike. The report's lost-node list is
// sorted and deduplicated whatever order the caller used.
func TestNodeLossNeverPredictsFaster(t *testing.T) {
	cases := []struct {
		gpuType   string
		gpus      int
		lost      []int
		skew, hot float64
	}{
		{"V100", 16, []int{0}, 1.2, 0},
		{"V100", 16, []int{1}, 0, 0.4},
		{"V100", 24, []int{2, 0, 2}, 1.2, 0},
		{"A100", 16, []int{0}, 0, 0},
	}
	for _, tc := range cases {
		sess := skewedSession(t, tc.gpuType, tc.gpus, tc.skew, tc.hot)
		rep, err := sess.NodeLoss(nil, tc.lost, Options{}, 17)
		if err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		if !slices.IsSorted(rep.LostNodes) || rep.LostGPUs != 8*len(rep.LostNodes) {
			t.Errorf("lose %v: report lists %v for %d lost GPUs", tc.lost, rep.LostNodes, rep.LostGPUs)
		}
		if rep.DegradedMs < rep.IntactMs {
			t.Errorf("%d x %s lose %v: degraded %.2f ms faster than intact %.2f ms",
				tc.gpus, tc.gpuType, tc.lost, rep.DegradedMs, rep.IntactMs)
		}
		if rep.ReplannedMs < rep.IntactMs {
			t.Errorf("%d x %s lose %v: replanned %.2f ms faster than intact %.2f ms",
				tc.gpus, tc.gpuType, tc.lost, rep.ReplannedMs, rep.IntactMs)
		}
		if rep.DegradedSlowdown < 1 {
			t.Errorf("%d x %s lose %v: slowdown %.3f < 1", tc.gpus, tc.gpuType, tc.lost, rep.DegradedSlowdown)
		}
	}
}

// TestNodeLossReplanBeatsDegradedReplay pins the headline of the node-loss
// scenario on configurations where the stale plan's group cuts no longer
// fit the survivors: the re-plan is faster than replaying the stale
// pipelines.
func TestNodeLossReplanBeatsDegradedReplay(t *testing.T) {
	cases := []struct {
		gpuType   string
		gpus      int
		lost      []int
		skew, hot float64
	}{
		{"V100", 16, []int{0}, 1.2, 0},
		{"V100", 16, []int{0}, 0, 0.4},
		{"A100", 16, []int{0}, 1.2, 0},
		{"V100", 24, []int{0, 1}, 1.2, 0},
	}
	for _, tc := range cases {
		sess := skewedSession(t, tc.gpuType, tc.gpus, tc.skew, tc.hot)
		rep, err := sess.NodeLoss(nil, tc.lost, Options{}, 17)
		if err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		if rep.ReplannedMs > rep.DegradedMs {
			t.Errorf("%d x %s lose %v: re-plan %.2f ms slower than degraded replay %.2f ms",
				tc.gpus, tc.gpuType, tc.lost, rep.ReplannedMs, rep.DegradedMs)
		}
	}
}

// TestNodeLossRejectsBadInputs covers the scenario's own validation: a
// streamed workload profile (histogram shaped for the intact fleet) and
// loss lists the cluster cannot absorb.
func TestNodeLossRejectsBadInputs(t *testing.T) {
	sess := skewedSession(t, "V100", 16, 1.2, 0)
	if _, err := sess.NodeLoss(nil, []int{7}, Options{}, 17); err == nil {
		t.Error("out-of-range lost node accepted")
	}
	if _, err := sess.NodeLoss(nil, []int{0, 1}, Options{}, 17); err == nil {
		t.Error("losing every node accepted")
	}
}

// TestFixedPipelinesReplayIsIdentity pins the replay mode underneath the
// degraded path and the drift experiment's stale plans: re-planning with
// FixedPipelines set to a plan's own pipelines on the same session
// reproduces that plan bit for bit — pipelines, graph size, prediction and
// simulated iteration — without running the DP, for every benchmark model
// under uniform, Zipf, hot-expert and decayed streamed traffic.
func TestFixedPipelinesReplayIsIdentity(t *testing.T) {
	acc := netsim.NewDecayedProfile(4)
	for _, p := range []*netsim.RoutingProfile{netsim.ZipfProfile(16, 0.8), netsim.ZipfProfile(16, 1.6), netsim.HotExpertProfile(16, 0.3)} {
		if err := acc.Ingest(p.Counts()); err != nil {
			t.Fatal(err)
		}
	}
	decayed, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		set  func(*Session) error
	}{
		{"uniform", func(*Session) error { return nil }},
		{"zipf-1.2", func(s *Session) error { s.WorkloadSkew = 1.2; return nil }},
		{"hot-0.3", func(s *Session) error { s.WorkloadHotExpert = 0.3; return nil }},
		{"decayed", func(s *Session) error { return s.SetWorkloadProfile(decayed) }},
	}
	for _, cfg := range []ModelConfig{GPT2SMoE(0), GPT2LMoE(0), ViTSMoE(0)} {
		for _, w := range workloads {
			t.Run(cfg.Name+"/"+w.name, func(t *testing.T) {
				sess, err := NewSession(cfg, MustCluster("V100", 16))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.set(sess); err != nil {
					t.Fatal(err)
				}
				base, err := sess.Lancet(Options{})
				if err != nil {
					t.Fatal(err)
				}
				replay, err := sess.Lancet(Options{FixedPipelines: base.Pipelines})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base.Pipelines, replay.Pipelines) {
					t.Errorf("replayed pipelines differ:\n  base   %v\n  replay %v", base.Pipelines, replay.Pipelines)
				}
				if replay.DPEvaluations >= base.DPEvaluations {
					t.Errorf("replay ran the DP: %d evaluations vs %d planned", replay.DPEvaluations, base.DPEvaluations)
				}
				if b, r := len(base.Graph.Instrs), len(replay.Graph.Instrs); b != r {
					t.Errorf("replayed graph has %d instructions, base %d", r, b)
				}
				bp, err := base.PredictUs()
				if err != nil {
					t.Fatal(err)
				}
				rp, err := replay.PredictUs()
				if err != nil {
					t.Fatal(err)
				}
				if bp != rp {
					t.Errorf("replayed plan predicts %v us, base %v us", rp, bp)
				}
				br, err := base.Simulate(17)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := replay.Simulate(17)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(br, rr) {
					t.Errorf("replayed plan simulates differently: %v vs %v ms", rr.IterationMs, br.IterationMs)
				}
			})
		}
	}
}

// TestElasticResizePlansEachSizeCold pins the resize sweep: each step is
// the plan a fresh session of its size computes, latency and DP
// evaluations alike, so matching sizes of this symmetric schedule land on
// the same plan wherever they fall in it.
func TestElasticResizePlansEachSizeCold(t *testing.T) {
	schedule := []int{16, 32, 64, 32, 16}
	steps, err := ElasticResize(GPT2SMoE(0), "V100", schedule, Options{}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(schedule) {
		t.Fatalf("%d steps, want %d", len(steps), len(schedule))
	}
	for i, st := range steps[:3] {
		sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", schedule[i]))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := sess.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cold.SimulateN(scenarioSimRuns, 17)
		if err != nil {
			t.Fatal(err)
		}
		if want := (ResizeStep{GPUs: schedule[i], IterationMs: sim.MeanMs, Evaluations: cold.DPEvaluations}); st != want {
			t.Errorf("step %d: %+v; a fresh session plans %+v", i, st, want)
		}
	}
	for i, j := range []int{4, 3} {
		if steps[i] != steps[j] {
			t.Errorf("steps %d and %d diverge: %+v vs %+v", i, j, steps[i], steps[j])
		}
	}
	if _, err := ElasticResize(GPT2SMoE(0), "V100", nil, Options{}, 17); err == nil {
		t.Error("empty schedule accepted")
	}
}

// TestSoleTenancyAblation pins the contention ablation's plumbing: on a
// contended fleet the sole-tenant-blind plan replays no faster than the
// aware one.
func TestSoleTenancyAblation(t *testing.T) {
	shared, err := MustCluster("V100", 16).WithTopology(Topology{NodesPerRack: 1, SpineShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(GPT2SMoE(0), shared)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GroupUs: 1000}
	blindOpts := opts
	blindOpts.View = View.SoleTenant
	blind, err := sess.Lancet(blindOpts)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := sess.Lancet(opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := blind.SimulateN(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := aware.SimulateN(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanMs < ra.MeanMs {
		t.Errorf("sole-tenant-blind plan faster than contention-aware: %.2f vs %.2f ms", rb.MeanMs, ra.MeanMs)
	}

}
