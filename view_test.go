package lancet

import (
	"reflect"
	"testing"

	"lancet/internal/netsim"
)

// samePlans reports the first way two plans of one session differ: chosen
// pipelines, partition counts, dW overlap or simulated iteration time.
func samePlans(t *testing.T, a, b *Plan) {
	t.Helper()
	if !reflect.DeepEqual(a.Pipelines, b.Pipelines) {
		t.Errorf("pipelines differ: %v vs %v", a.Pipelines, b.Pipelines)
	}
	if a.DWOverlapUs != b.DWOverlapUs {
		t.Errorf("dW overlap differs: %.3f vs %.3f us", a.DWOverlapUs, b.DWOverlapUs)
	}
	for _, seed := range []int64{2, 3} {
		if ra, rb := a.MustSimulate(seed), b.MustSimulate(seed); ra.IterationMs != rb.IterationMs {
			t.Errorf("seed %d: %.3f vs %.3f ms", seed, ra.IterationMs, rb.IterationMs)
		}
	}
}

// TestPlannerViews pins the view derivations (DESIGN.md §8): each is the
// identity where its knowledge is inert, blindness composes (a flat view
// already ignores the spine's tenant share, in either order), and a view
// that changes the GPU count or mis-shapes the profile is rejected.
func TestPlannerViews(t *testing.T) {
	v100 := MustCluster("V100", 16)
	topo := func(tp Topology) Cluster {
		c, err := v100.WithTopology(tp)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	inert := []struct {
		name    string
		view    func(View) View
		cluster Cluster
	}{
		{"Flat on a flat fabric", View.Flat, v100},
		{"Flat on a single oversubscribed rack", View.Flat, topo(Topology{NodesPerRack: 2, Oversubscription: 4})},
		{"UniformHardware on a uniform fleet", View.UniformHardware, v100},
		{"SoleTenant on an uncontended fleet", View.SoleTenant, v100},
		{"SoleTenant on an oversubscribed sole-tenant spine", View.SoleTenant, topo(Topology{NodesPerRack: 1, Oversubscription: 4})},
		{"UniformRouting on balanced traffic", View.UniformRouting, v100},
	}
	for _, tc := range inert {
		t.Run("inert/"+tc.name, func(t *testing.T) {
			sess, err := NewSession(GPT2SMoE(0), tc.cluster)
			if err != nil {
				t.Fatal(err)
			}
			aware, err := sess.Lancet(Options{})
			if err != nil {
				t.Fatal(err)
			}
			blind, err := sess.Lancet(Options{View: tc.view})
			if err != nil {
				t.Fatal(err)
			}
			samePlans(t, blind, aware)
			for name, p := range map[string]*Plan{"default": aware, "view": blind} {
				rep := p.MustSimulate(3)
				if tc.cluster.FlatTopology() && rep.A2ABoundSpineMs != 0 {
					t.Errorf("%s plan on a flat fabric reported %.3f ms spine-bound a2a", name, rep.A2ABoundSpineMs)
				}
				if rep.StragglerClassMs != nil {
					t.Errorf("%s plan on a uniform fleet reported straggler classes %v", name, rep.StragglerClassMs)
				}
			}
		})
	}

	t.Run("composed", func(t *testing.T) {
		shared := topo(Topology{NodesPerRack: 1, Oversubscription: 4, SpineShare: 0.5})
		sess, err := NewSession(GPT2SMoE(0), shared)
		if err != nil {
			t.Fatal(err)
		}
		plan := func(view func(View) View) *Plan {
			p, err := sess.Lancet(Options{GroupUs: 1000, View: view})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		flat, aware := plan(View.Flat), plan(nil)
		if reflect.DeepEqual(flat.Pipelines, aware.Pipelines) {
			t.Fatal("the flat view planned like reality on a contended, oversubscribed fleet")
		}
		samePlans(t, plan(func(v View) View { return v.SoleTenant().Flat() }), flat)
		samePlans(t, plan(func(v View) View { return v.Flat().SoleTenant() }), flat)
	})

	t.Run("rejected", func(t *testing.T) {
		sess, err := NewSession(GPT2SMoE(0), v100)
		if err != nil {
			t.Fatal(err)
		}
		for name, view := range map[string]func(View) View{
			"fewer GPUs": func(v View) View {
				v.Cluster = MustCluster("V100", 8)
				return v
			},
			"mis-shaped profile": func(v View) View {
				v.Profile = netsim.UniformProfile(8)
				return v
			},
		} {
			if _, err := sess.Lancet(Options{View: view}); err == nil {
				t.Errorf("%s: view accepted", name)
			}
		}
	})
}

// TestUniformHardwareViewKeepsGPUCount: on a fleet whose classes differ in
// node size (2x8 A100 + 1x4 V100, 20 GPUs) the hetero-blind view keeps the
// GPU count, so the blind plan prices the session's own skewed routing
// profile instead of a 24-GPU cluster the profile does not fit.
func TestUniformHardwareViewKeepsGPUCount(t *testing.T) {
	fast, err := ClassForGPU("A100", 2)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ClassForGPU("V100", 1)
	if err != nil {
		t.Fatal(err)
	}
	slow.GPUsPerNode = 4
	cl, err := NewHeteroCluster(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(GPT2SMoE(0), cl)
	if err != nil {
		t.Fatal(err)
	}
	sess.WorkloadSkew = 1.2
	blind, err := sess.Lancet(Options{View: View.UniformHardware})
	if err != nil {
		t.Fatalf("hetero-blind plan on %s: %v", cl, err)
	}
	if _, err := blind.Simulate(1); err != nil {
		t.Fatal(err)
	}
}
