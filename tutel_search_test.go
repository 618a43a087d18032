package lancet

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"lancet/internal/baselines"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/sim"
)

// tutelPrices is what a Tutel plan reports: the chosen degree, the
// optimizer-visible prediction, the seed-17 simulation and the memory
// verdict.
type tutelPrices struct {
	degree  int
	predict float64
	report  *Report
	oom     bool
}

func pricesOf(p *Plan) (tutelPrices, error) {
	pred, err := p.PredictUs()
	if err != nil {
		return tutelPrices{}, err
	}
	rep, err := p.Simulate(17)
	if err != nil {
		return tutelPrices{}, err
	}
	return tutelPrices{p.TutelDegree, pred, rep, p.OOM}, nil
}

// uncachedTutel is the reference for the session's Tutel memo: it runs
// BestTutelPlan for a fresh session on a fresh model derived at Tutel's
// compute scale and prices the winner on that model. It also returns the
// model's memo misses after the search and after the winner's PredictUs.
func uncachedTutel(t *testing.T, cfg ModelConfig, cl Cluster) (tutelPrices, int64, int64) {
	t.Helper()
	s, err := NewSession(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	cm := s.derived.costs.WithComputeScale(baselines.Tutel.ComputeScale)
	ex := &sim.Executor{Cost: cm, Predict: true}
	g, degree, _, err := baselines.BestTutelPlan(s.Built, func(g *ir.Graph) (float64, error) {
		tl, err := ex.Run(g)
		if err != nil {
			return 0, err
		}
		return tl.TotalUs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	searched := cm.Stats().Misses
	p := &Plan{Graph: g, TutelDegree: degree, costs: cm, OOM: baselines.Tutel.OOMs(s.Built)}
	want, err := pricesOf(p)
	if err != nil {
		t.Fatal(err)
	}
	return want, searched, cm.Stats().Misses
}

// planColdFleets are the five fleets of the plan-cold mix: 16×V100,
// 32×A100, 64×V100, a mixed 2×A100 + 2×V100-node fleet and 32×V100 at two
// nodes per rack behind a 4:1 oversubscribed spine.
var planColdFleets = []struct {
	name  string
	build func() (Cluster, error)
}{
	{"v100x16", func() (Cluster, error) { return NewCluster("V100", 16) }},
	{"a100x32", func() (Cluster, error) { return NewCluster("A100", 32) }},
	{"v100x64", func() (Cluster, error) { return NewCluster("V100", 64) }},
	{"2a100+2v100", func() (Cluster, error) {
		a, err := ClassForGPU("A100", 2)
		if err != nil {
			return Cluster{}, err
		}
		v, err := ClassForGPU("V100", 2)
		if err != nil {
			return Cluster{}, err
		}
		return NewHeteroCluster(a, v)
	}},
	{"v100x32-oversub4", func() (Cluster, error) {
		cl, err := NewCluster("V100", 32)
		if err != nil {
			return Cluster{}, err
		}
		return cl.WithTopology(Topology{NodesPerRack: 2, Oversubscription: 4}.DefaultRacks())
	}},
}

// TestTutelSearchMatchesUncachedSearch pins the session's Tutel memo
// (DESIGN.md §5) against the search it replaces. On each model × fleet,
// eight goroutines call Baseline(FrameworkTutel) at once on views of one
// fresh session under the uniform, Zipf 1.2 and hot 0.3 workloads, so the
// first calls race for the search; every plan's degree, PredictUs,
// Simulate(17) and OOM verdict must equal the uncached search's. The
// soundness argument is checked too: pricing the winner after its search
// takes no memo miss, so the kept model ends with exactly the misses the
// search took, however many plans priced on it.
func TestTutelSearchMatchesUncachedSearch(t *testing.T) {
	fleets := planColdFleets[:4]
	workloads := []struct{ skew, hot float64 }{{0, 0}, {1.2, 0}, {0, 0.3}}
	const callers = 8
	for _, name := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		cfg, err := ParseModel(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fleet := range fleets {
			cl, err := fleet.build()
			if err != nil {
				t.Fatal(err)
			}
			want, searched, priced := uncachedTutel(t, cfg, cl)
			if priced != searched {
				t.Errorf("%s %s: the winner's PredictUs took %d memo misses after its search", name, fleet.name, priced-searched)
			}
			base, err := NewSession(cfg, cl)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]tutelPrices, callers)
			errs := make([]error, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range callers {
				w := workloads[i%len(workloads)]
				view := base.WithWorkload(w.skew, w.hot)
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					p, err := view.Baseline(FrameworkTutel)
					if err == nil {
						got[i], err = pricesOf(p)
					}
					errs[i] = err
				}()
			}
			close(start)
			wg.Wait()
			for i := range callers {
				if errs[i] != nil {
					t.Fatalf("%s %s caller %d: %v", name, fleet.name, i, errs[i])
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s %s caller %d: degree %d predict %v report %+v oom %v; uncached search: degree %d predict %v report %+v oom %v",
						name, fleet.name, i, got[i].degree, got[i].predict, *got[i].report, got[i].oom,
						want.degree, want.predict, *want.report, want.oom)
				}
			}
			if kept := base.derived.tutel.val.costs.Stats().Misses; kept != searched {
				t.Errorf("%s %s: the kept model took %d memo misses, the search %d", name, fleet.name, kept, searched)
			}
		}
	}
}

// TestTutelPredictionIsTheSearchs pins that a Tutel plan's PredictUs,
// the prediction its session's degree search made of the chosen degree's
// graph, is what a fresh predict-mode simulation of the plan's graph on
// the plan's model returns, bit for bit. On each of the 15 plan-cold
// model × fleet pairs it checks the call that ran the search, a later
// call on the session and calls on a Zipf 1.2 and a hot 0.3 view, and
// that every later call returns the first call's graph.
func TestTutelPredictionIsTheSearchs(t *testing.T) {
	for _, name := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		cfg, err := ParseModel(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fleet := range planColdFleets {
			cl, err := fleet.build()
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(cfg, cl)
			if err != nil {
				t.Fatal(err)
			}
			var first *ir.Graph
			for i, sess := range []*Session{s, s, s.WithWorkload(1.2, 0), s.WithWorkload(0, 0.3)} {
				p, err := sess.Baseline(FrameworkTutel)
				if err != nil {
					t.Fatalf("%s %s call %d: %v", name, fleet.name, i, err)
				}
				if i == 0 {
					first = p.Graph
				} else if p.Graph != first {
					t.Errorf("%s %s call %d: graph %p, the first call's %p", name, fleet.name, i, p.Graph, first)
				}
				if p.predictedUs == nil {
					t.Fatalf("%s %s call %d: the plan carries no prediction", name, fleet.name, i)
				}
				got, err := p.PredictUs()
				if err != nil {
					t.Fatal(err)
				}
				tl, err := (&sim.Executor{Cost: p.costs, Predict: true}).Run(p.Graph)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(tl.TotalUs) {
					t.Errorf("%s %s call %d: PredictUs %v, a fresh simulation %v", name, fleet.name, i, got, tl.TotalUs)
				}
			}
		}
	}
}

// TestTutelSearchFailureIsSticky pins the memo's failure paths: a search
// that errors fails every later Tutel call on the session and its views
// with the same error, and one that panics re-raises the same value on
// every call. Neither leaves a graph, a degree or a model behind.
func TestTutelSearchFailureIsSticky(t *testing.T) {
	s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	// A core window that starts at the gate is not partitionable, so
	// every degree above 1 fails to rewrite.
	broken := *s.Built
	broken.MoE = append([]model.MoEHandles(nil), s.Built.MoE...)
	broken.MoE[0].DispatchA2A = broken.MoE[0].Gate
	s.Built = &broken
	var first error
	for i, sess := range []*Session{s, s.WithWorkload(1.2, 0), s} {
		p, err := sess.Baseline(FrameworkTutel)
		if err == nil {
			t.Fatalf("call %d: broken graph planned degree %d", i, p.TutelDegree)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Errorf("call %d: error %v, first call %v", i, err, first)
		}
	}
	if c := s.derived.tutel.val; c.graph != nil || c.degree != 0 || c.costs != nil {
		t.Errorf("failed search kept graph %p, degree %d, model %v", c.graph, c.degree, c.costs)
	}

	search := new(onceValue[tutelChoice])
	panicOf := func() (v any) {
		defer func() { v = recover() }()
		// A nil base model panics in the search.
		search.get(func() (tutelChoice, error) { return searchTutel(s.Built, nil) })
		return nil
	}
	p1, p2 := panicOf(), panicOf()
	if p1 == nil || fmt.Sprint(p1) != fmt.Sprint(p2) {
		t.Errorf("search panics %v, then %v", p1, p2)
	}
	if c := search.val; search.done || c.graph != nil || c.degree != 0 || c.costs != nil {
		t.Errorf("panicked search left done %v, graph %p, degree %d, model %v", search.done, c.graph, c.degree, c.costs)
	}
}
