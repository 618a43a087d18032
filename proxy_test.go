package lancet

import (
	"reflect"
	"testing"
)

// TestProxyMemoBounded pins the process-wide routing-proxy memo's bound:
// four times its cap in distinct Zipf alphas leaves at most the cap in
// entries, the least recently used proxy is the one evicted, and a proxy
// recomputed after its eviction is identical to the first.
func TestProxyMemoBounded(t *testing.T) {
	sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 2))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.WithWorkload(1, 0).profile(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4*proxyMemoCap; i++ {
		if _, err := sess.WithWorkload(1+float64(i)*1e-9, 0).profile(nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	proxyCache.mu.Lock()
	n := len(proxyCache.m)
	_, kept := proxyCache.m[proxyKey{devices: 2, expertsPerGPU: sess.Config.ExpertsPerGPU, k: 1,
		gate: sess.Config.Gate, capacityFactor: sess.Config.CapacityFactor, skew: 1}]
	proxyCache.mu.Unlock()
	if n > proxyMemoCap {
		t.Errorf("proxy memo holds %d entries, cap %d", n, proxyMemoCap)
	}
	if kept {
		t.Error("the least recently used proxy survived 4x the cap in newer ones")
	}
	again, err := sess.WithWorkload(1, 0).profile(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("the evicted proxy was served from the memo")
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("recomputed proxy %+v differs from the first %+v", again, first)
	}
}
