package lancet

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lancet/internal/netsim"
)

// TestSetWorkloadProfile pins the streamed-workload contract the drift loop
// depends on (DESIGN.md §16): an installed profile replaces the parametric
// gate proxy end to end, mismatched shapes are rejected, and nil reverts.
func TestSetWorkloadProfile(t *testing.T) {
	s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	wp := netsim.ZipfProfile(16, 1.4)
	if err := s.SetWorkloadProfile(wp); err != nil {
		t.Fatal(err)
	}
	// RoutingProfile reports the delivered shape: capacity clips the Zipf
	// profile's over-subscribed destinations, so the hottest device's
	// ingress share ends at the capacity ceiling, below the raw profile's.
	got, err := s.RoutingProfile()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("streamed workload reported a nil routing profile")
	}
	if raw, del := wp.MaxIngressShare(), got.MaxIngressShare(); del >= raw {
		t.Errorf("delivered hot share %.3f not clipped below offered %.3f", del, raw)
	}
	if err := s.SetWorkloadProfile(netsim.ZipfProfile(8, 1.4)); err == nil {
		t.Error("profile shaped for 8 devices accepted on a 16-GPU cluster")
	}

	// The streamed workload plans and replays end to end, and the replayed
	// skew shows up as irregular all-to-all time exactly like a parametric
	// skewed workload's does.
	plan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := plan.MustSimulate(1)
	if rep.IterationMs <= 0 {
		t.Errorf("streamed-workload iteration = %v ms", rep.IterationMs)
	}
	if rep.IrregularA2AMs <= 0 {
		t.Error("streamed workload produced no irregular all-to-all time")
	}

	// Swapping to a new shape re-derives dispatch statistics; reverting to
	// nil restores the balanced parametric workload.
	if err := s.SetWorkloadProfile(netsim.HotExpertProfile(16, 0.5)); err != nil {
		t.Fatal(err)
	}
	got2, err := s.RoutingProfile()
	if err != nil {
		t.Fatal(err)
	}
	if got2 == nil || got2.Fingerprint() == wp.Fingerprint() {
		t.Error("profile swap did not take effect")
	}
	if err := s.SetWorkloadProfile(nil); err != nil {
		t.Fatal(err)
	}
	if prof, err := s.RoutingProfile(); err != nil || prof != nil {
		t.Errorf("after revert RoutingProfile = (%v, %v), want (nil, nil)", prof, err)
	}
}

// TestPlanKeepsItsWorkload pins DESIGN.md §7's "a Plan is immutable after
// planning": a plan keeps the workload it was planned for, so installing a
// new streamed profile on its session, or reverting to the parametric
// workload, changes neither its prediction, its simulated iteration nor its
// trace. The concurrent leg swaps profiles and plans on one session while
// other goroutines simulate plans of that session for the first time; run
// it under -race.
func TestPlanKeepsItsWorkload(t *testing.T) {
	type outputs struct {
		predictUs float64
		report    *Report
		trace     []byte
	}
	observe := func(p *Plan) (o outputs, err error) {
		if o.predictUs, err = p.PredictUs(); err != nil {
			return o, err
		}
		if o.report, err = p.Simulate(17); err != nil {
			return o, err
		}
		o.trace, err = p.ChromeTrace(17)
		return o, err
	}
	// differs describes how got departs from want, or returns "".
	differs := func(got, want outputs) string {
		if got.predictUs == want.predictUs && reflect.DeepEqual(got.report, want.report) && bytes.Equal(got.trace, want.trace) {
			return ""
		}
		return fmt.Sprintf("PredictUs %.0f, Simulate(17) %.4f ms, trace equal %v; want %.0f, %.4f ms",
			got.predictUs, got.report.IterationMs, bytes.Equal(got.trace, want.trace), want.predictUs, want.report.IterationMs)
	}

	t.Run("swap", func(t *testing.T) {
		s := newTestSession(t)
		if err := s.SetWorkloadProfile(netsim.ZipfProfile(16, 1.4)); err != nil {
			t.Fatal(err)
		}
		plan, err := s.Lancet(Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := observe(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, swap := range []struct {
			name string
			wp   *netsim.RoutingProfile
		}{{"hot 0.5", netsim.HotExpertProfile(16, 0.5)}, {"nil", nil}} {
			if err := s.SetWorkloadProfile(swap.wp); err != nil {
				t.Fatal(err)
			}
			got, err := observe(plan)
			if err != nil {
				t.Fatal(err)
			}
			if d := differs(got, want); d != "" {
				t.Errorf("Zipf 1.4 plan after the session installed %s: %s", swap.name, d)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		workloads := []*netsim.RoutingProfile{netsim.ZipfProfile(16, 1.4), netsim.HotExpertProfile(16, 0.5), nil}
		// The reference outputs come from a second session, so the plans
		// under test derive their overrides for the first time while their
		// session's profile is being swapped.
		ref, s := newTestSession(t), newTestSession(t)
		wants := make([]outputs, len(workloads))
		plans := make([]*Plan, len(workloads))
		for i, wp := range workloads {
			for _, sess := range []*Session{ref, s} {
				if err := sess.SetWorkloadProfile(wp); err != nil {
					t.Fatal(err)
				}
			}
			rp, err := ref.Lancet(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if wants[i], err = observe(rp); err != nil {
				t.Fatal(err)
			}
			if plans[i], err = s.Lancet(Options{}); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		for i, p := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					got, err := observe(p)
					if err != nil {
						t.Error(err)
						return
					}
					if d := differs(got, wants[i]); d != "" {
						t.Errorf("plan %d simulated during swaps: %s", i, d)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 2 * len(workloads) {
				i := n % len(workloads)
				if err := s.SetWorkloadProfile(workloads[i]); err != nil {
					t.Error(err)
					return
				}
				p, err := s.Lancet(Options{})
				if err != nil {
					t.Error(err)
					return
				}
				got, err := observe(p)
				if err != nil {
					t.Error(err)
					return
				}
				if d := differs(got, wants[i]); d != "" {
					t.Errorf("re-plan %d for workload %d: %s", n, i, d)
				}
			}
		}()
		wg.Wait()
	})
}

// TestPlanProfileGeneralizesAblation: a view priced against the session's
// own profile reproduces the default plan, and one priced against the
// uniform shape reproduces the View.UniformRouting ablation — a stale
// profile (v.Profile = p) is the stale-plan replay primitive, not a new
// planning mode.
func TestPlanProfileGeneralizesAblation(t *testing.T) {
	s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	s.WorkloadSkew = 1.2
	aware, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	own, err := s.RoutingProfile()
	if err != nil {
		t.Fatal(err)
	}
	withProfile := func(p *netsim.RoutingProfile) func(View) View {
		return func(v View) View {
			v.Profile = p
			return v
		}
	}
	viaView, err := s.Lancet(Options{View: withProfile(own)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaView.Pipelines, aware.Pipelines) {
		t.Errorf("own-profile view pipelines %v != default %v", viaView.Pipelines, aware.Pipelines)
	}
	blind, err := s.Lancet(Options{View: View.UniformRouting})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := s.Lancet(Options{View: withProfile(netsim.UniformProfile(16))})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uni.Pipelines, blind.Pipelines) {
		t.Errorf("uniform-profile view pipelines %v != ablation %v", uni.Pipelines, blind.Pipelines)
	}
}
