package baselines_test

import (
	"testing"

	"lancet"
	"lancet/internal/baselines"
)

// TestSpecs pins the frameworks' relative kernel quality and that every
// baseline transmits padded all-to-alls: its simulated iteration runs no
// irregular all-to-all time, while Lancet's does, under balanced and skewed
// routing.
func TestSpecs(t *testing.T) {
	if baselines.DeepSpeed.ComputeScale >= baselines.RAF.ComputeScale {
		t.Error("PyTorch-based DeepSpeed should be slower than the RAF compiler")
	}
	if baselines.Tutel.ComputeScale <= baselines.DeepSpeed.ComputeScale {
		t.Error("Tutel's fused kernels should beat DeepSpeed's")
	}
	for _, skew := range []float64{0, 1.2} {
		sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
		if err != nil {
			t.Fatal(err)
		}
		sess.WorkloadSkew = skew
		for _, fw := range lancet.Frameworks() {
			p, err := sess.Baseline(fw)
			if err != nil {
				t.Fatal(err)
			}
			irregular := p.MustSimulate(1).IrregularA2AMs
			if fw == lancet.FrameworkLancet && irregular <= 0 {
				t.Errorf("skew %g: Lancet ran no irregular all-to-all time", skew)
			}
			if fw != lancet.FrameworkLancet && irregular != 0 {
				t.Errorf("skew %g: %s ran %.3f ms of irregular all-to-all time, want padded buffers only", skew, fw, irregular)
			}
		}
	}
}
