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
// must not race (run with -race). Its second leg is the service's pooled
// path: on a workload view per plan-cold routing of one session, Lancet,
// Tutel and FasterMoE plan and simulate concurrently. Their graphs share
// the session's tensors and instructions, and the views share its cost
// model; the results must match serial plans on sessions of their own, and
// the session's graph must dump as it did before.
func TestConcurrentPlansShareSession(t *testing.T) {
	frameworks := []string{
		lancet.FrameworkDeepSpeed, lancet.FrameworkRAF,
		lancet.FrameworkTutel, lancet.FrameworkFasterMoE, lancet.FrameworkLancet,
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

	// On 32 A100s FasterMoE shadows an expert under every routing, so its
	// copy-on-edit runs next to the plans reading the same instructions.
	viewFrameworks := []string{lancet.FrameworkLancet, lancet.FrameworkTutel, lancet.FrameworkFasterMoE}
	fleet := lancet.MustCluster("A100", 32)
	want := make([][]float64, len(viewRoutings))
	for i, r := range viewRoutings {
		own, err := lancet.NewSession(lancet.GPT2SMoE(0), fleet)
		if err != nil {
			t.Fatal(err)
		}
		own.WorkloadSkew, own.WorkloadHotExpert = r.skew, r.hot
		for _, fw := range viewFrameworks {
			want[i] = append(want[i], plan(own, fw))
		}
	}
	base, err := lancet.NewSession(lancet.GPT2SMoE(0), fleet)
	if err != nil {
		t.Fatal(err)
	}
	before := graphHash(base.Built.Graph)
	viewed := make([][]float64, len(viewRoutings))
	for i, r := range viewRoutings {
		view := base.WithWorkload(r.skew, r.hot)
		viewed[i] = make([]float64, len(viewFrameworks))
		for j, fw := range viewFrameworks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				viewed[i][j] = plan(view, fw)
			}()
		}
	}
	wg.Wait()
	for i, r := range viewRoutings {
		for j, fw := range viewFrameworks {
			if viewed[i][j] != want[i][j] {
				t.Errorf("%s %s: concurrent view iteration %.4f ms != own session's %.4f ms",
					r.name, fw, viewed[i][j], want[i][j])
			}
		}
	}
	if after := graphHash(base.Built.Graph); after != before {
		t.Errorf("concurrent plans changed the pooled session's graph: %s -> %s", before, after)
	}
}
