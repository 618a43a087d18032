package lancet

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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
	n := proxyCache.Len()
	_, kept := proxyCache.Get(proxyKey{devices: 2, expertsPerGPU: sess.Config.ExpertsPerGPU, k: 1,
		gate: sess.Config.Gate, capacityFactor: sess.Config.CapacityFactor, skew: 1})
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

// TestProxyRunsOncePerShape pins that concurrent plans of one uncached
// shape share one gate run: callers asking for the proxy while its run is
// held open join that run and all receive its result.
func TestProxyRunsOncePerShape(t *testing.T) {
	sess, err := NewSession(GPT2SMoE(0), MustCluster("V100", 2))
	if err != nil {
		t.Fatal(err)
	}
	view := sess.WithWorkload(1.2345, 0) // a Zipf alpha no other test plans
	const callers = 8
	var runs atomic.Int32
	release := make(chan struct{})
	run := proxyRun
	proxyRun = func(k proxyKey) (*routingProfile, error) {
		runs.Add(1)
		<-release
		return run(k)
	}
	defer func() { proxyRun = run }()

	joined := proxyCache.Stats().Deduplicated + callers - 1
	got := make([]*routingProfile, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := view.profile(nil, 1)
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	for proxyCache.Stats().Deduplicated < joined {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("%d callers ran the gate %d times, want once", callers, n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Errorf("caller %d got proxy %p, caller 0 got %p", i, p, got[0])
		}
	}
}
