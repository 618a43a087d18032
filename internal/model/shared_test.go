package model

import (
	"strings"
	"testing"

	"lancet/internal/hw"
	"lancet/internal/ir"
)

func buildShared(t *testing.T) (*Built, *Built) {
	t.Helper()
	cl := hw.V100Cluster(2)
	plain := GPT2SMoE()
	plain.BatchPerGPU = 16
	shared := plain
	shared.SharedExpert = true
	pb, err := Build(plain, cl)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Build(shared, cl)
	if err != nil {
		t.Fatal(err)
	}
	return pb, sb
}

func TestSharedExpertGraphValid(t *testing.T) {
	_, sb := buildShared(t)
	if err := sb.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedExpertAddsOps(t *testing.T) {
	pb, sb := buildShared(t)
	nMoE := pb.Config.NumMoELayers()
	// Forward: +3 ops per MoE layer. Backward: +5 dX/dW ops + 1 join.
	if got, want := len(sb.Graph.Instrs)-len(pb.Graph.Instrs), 9*nMoE; got != want {
		t.Errorf("shared expert added %d instructions, want %d", got, want)
	}
	// +2 dW per MoE layer (shared ffn1/ffn2).
	if got, want := dwCount(sb.Graph)-dwCount(pb.Graph), 2*nMoE; got != want {
		t.Errorf("shared expert added %d dW ops, want %d", got, want)
	}
	// The all-to-all structure is untouched.
	if len(sb.Graph.AllToAlls()) != len(pb.Graph.AllToAlls()) {
		t.Error("shared expert must not change all-to-all count")
	}
	if totalFLOPs(sb.Graph) <= totalFLOPs(pb.Graph) {
		t.Error("shared expert must add compute")
	}
}

func TestSharedExpertWeightsAreSynced(t *testing.T) {
	_, sb := buildShared(t)
	g := sb.Graph
	// Shared-expert weight gradients are replicated parameters: they must
	// feed a gradient all-reduce.
	synced := 0
	for _, in := range g.Instrs {
		if in.Grad != ir.GradDW || !strings.Contains(in.Name, "shared_ffn") {
			continue
		}
		for _, c := range consumers(g, in.Outs) {
			if c.Op == ir.OpAllReduce {
				synced++
			}
		}
	}
	if want := 2 * sb.Config.NumMoELayers(); synced != want {
		t.Errorf("%d shared dW tensors feed all-reduce, want %d", synced, want)
	}
}

// The architectural point of the shared expert: its forward computation is
// independent of the dispatch all-to-all, so it overlaps naturally.
func TestSharedExpertIndependentOfA2A(t *testing.T) {
	_, sb := buildShared(t)
	g := sb.Graph
	for _, h := range sb.MoE {
		var sharedFwd []int
		for _, in := range g.Instrs {
			if in.Layer == h.Layer && in.Phase == ir.Forward && strings.Contains(in.Name, "shared_") {
				sharedFwd = append(sharedFwd, in.ID)
			}
		}
		if len(sharedFwd) != 3 {
			t.Fatalf("layer %d: found %d shared fwd ops, want 3", h.Layer, len(sharedFwd))
		}
		for _, id := range sharedFwd {
			for _, a2a := range []int{h.DispatchA2A, h.CombineA2A} {
				if !g.Independent(id, a2a) {
					t.Errorf("layer %d: shared op @%d depends on a2a @%d", h.Layer, id, a2a)
				}
			}
		}
	}
}
