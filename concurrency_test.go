package lancet_test

import (
	"sync"
	"testing"

	"lancet"
)

// TestConcurrentPlansShareSession is the regression test for the parallel
// CLI path: all frameworks plan and simulate against one Session — and so
// share its built graph and routing proxies — concurrently. Results must
// match a serial run exactly, and the shared graph, read-only once built,
// must not race (run with -race). Its second leg is the service's pooled path:
// workload views of one session plan the three plan-cold routings
// concurrently, sharing its graph and cost model, and must match serial
// plans on sessions of their own.
func TestConcurrentPlansShareSession(t *testing.T) {
	frameworks := []string{
		lancet.FrameworkDeepSpeed, lancet.FrameworkRAF,
		lancet.FrameworkTutel, lancet.FrameworkLancet,
	}
	plan := func(sess *lancet.Session, fw string) float64 {
		t.Helper()
		var p *lancet.Plan
		var err error
		if fw == lancet.FrameworkLancet {
			p, err = sess.Lancet(lancet.Options{})
		} else {
			p, err = sess.Baseline(fw)
		}
		if err != nil {
			t.Errorf("%s: %v", fw, err)
			return 0
		}
		return p.MustSimulate(1).IterationMs
	}

	serialSess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 8))
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, len(frameworks))
	for i, fw := range frameworks {
		serial[i] = plan(serialSess, fw)
	}

	parSess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 8))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(frameworks))
	var wg sync.WaitGroup
	for i, fw := range frameworks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = plan(parSess, fw)
		}()
	}
	wg.Wait()

	for i, fw := range frameworks {
		if got[i] != serial[i] {
			t.Errorf("%s: concurrent iteration %.4f ms != serial %.4f ms", fw, got[i], serial[i])
		}
	}

	want := make([]float64, len(viewRoutings))
	for i, r := range viewRoutings {
		own, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 8))
		if err != nil {
			t.Fatal(err)
		}
		own.WorkloadSkew, own.WorkloadHotExpert = r.skew, r.hot
		want[i] = plan(own, lancet.FrameworkLancet)
	}
	base, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 8))
	if err != nil {
		t.Fatal(err)
	}
	viewed := make([]float64, len(viewRoutings))
	for i, r := range viewRoutings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			viewed[i] = plan(base.WithWorkload(r.skew, r.hot), lancet.FrameworkLancet)
		}()
	}
	wg.Wait()
	for i, r := range viewRoutings {
		if viewed[i] != want[i] {
			t.Errorf("%s: concurrent view iteration %.4f ms != own session's %.4f ms", r.name, viewed[i], want[i])
		}
	}
}
