package lancet

import (
	"reflect"
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
	if got := s.StreamedProfile(); got == nil || got.Fingerprint() != wp.Fingerprint() {
		t.Fatalf("StreamedProfile = %v, want the installed profile", got)
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
