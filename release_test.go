package lancet_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"lancet"
)

// Lancet plans released one after another carve their rewrites from one
// another's storage (DESIGN.md §2, §7): each of the 45 plan-cold shapes is
// planned, hashed the way TestRewrittenGraphsGolden hashes it and released,
// in ascending and then descending rewrite size, so a small graph lands on
// storage a large one used and the other way round. Every hash must equal
// the committed golden. The Tutel and FasterMoE graphs are dumped after
// the plans released before them, so a session's kept Tutel graph that a
// release handed out fails here too, and so does a session graph a
// recycled rewrite wrote through.
func TestReleasedPlansRecycleIntoGoldenGraphs(t *testing.T) {
	shapes := goldenShapes()
	sessions := make([]*lancet.Session, len(shapes))
	before := make([]string, len(shapes))
	size := make([]int, len(shapes))
	for i, shape := range shapes {
		sess, err := shape.session()
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		sessions[i], before[i] = sess, graphHash(sess.Built.Graph)
		lp, err := sess.Lancet(lancet.Options{})
		if err != nil {
			t.Fatalf("%v: lancet: %v", shape, err)
		}
		size[i] = len(lp.Graph.Instrs) + len(lp.Graph.Tensors)
		lp.Release()
	}
	order := make([]int, len(shapes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size[a], size[b]) })
	descending := slices.Clone(order)
	slices.Reverse(descending)
	for pass, order := range [][]int{order, descending} {
		for _, i := range order {
			shape, sess := shapes[i], sessions[i]
			h := sha256.New()
			lp, err := sess.Lancet(lancet.Options{})
			if err != nil {
				t.Fatalf("pass %d %v: lancet: %v", pass, shape, err)
			}
			fmt.Fprintf(h, "lancet\n")
			dumpGraph(h, lp.Graph)
			lp.Release()
			for _, fw := range []string{lancet.FrameworkTutel, lancet.FrameworkFasterMoE} {
				bp, err := sess.Baseline(fw)
				if err != nil {
					t.Fatalf("pass %d %v: %s: %v", pass, shape, fw, err)
				}
				fmt.Fprintf(h, "%s degree %d\n", fw, bp.TutelDegree)
				dumpGraph(h, bp.Graph)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), rewrittenGraphGoldens[shape]; got != want {
				t.Errorf("pass %d %v: rewritten graphs hash %s, want %s", pass, shape, got, want)
			}
			if after := graphHash(sess.Built.Graph); after != before[i] {
				t.Errorf("pass %d %v: planning changed the session graph", pass, shape)
			}
		}
	}
}

// A released plan keeps its numbers but no graph: every simulation of it
// fails rather than read storage a later plan carves, and a second
// Release does nothing.
func TestReleasedPlanRefusesToSimulate(t *testing.T) {
	sess, err := goldenShape{"gpt2-s", "v100x16", "uniform"}.session()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := sess.Lancet(lancet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Pipelines) == 0 {
		t.Fatal("the plan chose no pipelines; the check needs a rewritten graph")
	}
	pipelines, evals := slices.Clone(lp.Pipelines), lp.DPEvaluations
	lp.Release()
	if lp.Graph != nil {
		t.Error("Release left the plan's graph")
	}
	if _, err := lp.PredictUs(); err == nil {
		t.Error("PredictUs of a released plan succeeded")
	}
	if _, err := lp.Simulate(17); err == nil {
		t.Error("Simulate of a released plan succeeded")
	}
	if _, err := lp.SimulateN(3, 17); err == nil {
		t.Error("SimulateN of a released plan succeeded")
	}
	if _, err := lp.ChromeTrace(17); err == nil {
		t.Error("ChromeTrace of a released plan succeeded")
	}
	if !slices.Equal(lp.Pipelines, pipelines) || lp.DPEvaluations != evals {
		t.Error("Release changed the plan's pipelines or evaluation count")
	}
	// The second Release must not hand the storage out again: the next
	// two plans would then carve from one set.
	lp.Release()
	a, err := sess.Lancet(lancet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ha := graphHash(a.Graph)
	b, err := sess.Lancet(lancet.Options{MaxPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if graphHash(a.Graph) != ha {
		t.Error("a plan's graph changed while a later plan was carved")
	}
	a.Release()
	b.Release()
}

// Release is a no-op on a plan whose graph a session or a baseline owns:
// a DisablePartition plan (the session's dW-scheduled graph) and the
// Tutel (the session's kept search winner), FasterMoE, DeepSpeed and RAF
// plans keep their graphs, which dump and price as before through a
// stream of released Lancet plans.
func TestReleaseLeavesSessionOwnedGraphs(t *testing.T) {
	sess, err := goldenShape{"gpt2-l", "a100x32", "zipf1.2"}.session()
	if err != nil {
		t.Fatal(err)
	}
	type kept struct {
		name  string
		plan  *lancet.Plan
		hash  string
		price float64
	}
	var plans []kept
	add := func(name string, p *lancet.Plan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		price, err := p.PredictUs()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans = append(plans, kept{name, p, graphHash(p.Graph), price})
	}
	p, err := sess.Lancet(lancet.Options{DisablePartition: true})
	add("no-partition", p, err)
	for _, fw := range []string{lancet.FrameworkTutel, lancet.FrameworkFasterMoE, lancet.FrameworkDeepSpeed, lancet.FrameworkRAF} {
		p, err := sess.Baseline(fw)
		add(fw, p, err)
	}
	for _, k := range plans {
		k.plan.Release()
		if k.plan.Graph == nil {
			t.Fatalf("%s: Release dropped a graph the plan does not own", k.name)
		}
	}
	for _, rho := range []int{8, 2, 4, 8, 2} {
		lp, err := sess.Lancet(lancet.Options{MaxPartitions: rho})
		if err != nil {
			t.Fatal(err)
		}
		lp.Release()
	}
	for _, k := range plans {
		if got := graphHash(k.plan.Graph); got != k.hash {
			t.Errorf("%s: graph dump changed after released Lancet plans", k.name)
		}
		if price, err := k.plan.PredictUs(); err != nil || price != k.price {
			t.Errorf("%s: PredictUs = %v, %v; want %v", k.name, price, err, k.price)
		}
	}
	tp, err := sess.Baseline(lancet.FrameworkTutel)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Graph != plans[1].plan.Graph {
		t.Error("tutel: a later call returned another graph than the kept one")
	}
	dw, err := sess.Lancet(lancet.Options{DisablePartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if dw.Graph != plans[0].plan.Graph {
		t.Error("no-partition: a later plan returned another graph than the session's dW-scheduled one")
	}
}

// The ρ memory fallback releases each result it rejects and keeps the one
// it accepts: on a 16×V100 fleet with too little memory for ρ = 8's
// staging, the fallback's graph dumps like a plan made at its ρ directly,
// and still does after later plans on another session carved from
// whatever the fallback released.
func TestRhoFallbackReleasesWhatItRejects(t *testing.T) {
	tight := lancet.MustCluster("V100", 16)
	tight.Node.GPU.MemGB = 10.3 // see TestRhoFallbackOnTightMemory
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), tight)
	if err != nil {
		t.Fatal(err)
	}
	fell, err := sess.Lancet(lancet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fell.RhoUsed >= 8 || len(fell.Pipelines) == 0 {
		t.Fatalf("want a fallback plan with pipelines, got rho %d and %d pipelines", fell.RhoUsed, len(fell.Pipelines))
	}
	h := graphHash(fell.Graph)
	direct, err := sess.Lancet(lancet.Options{MaxPartitions: fell.RhoUsed})
	if err != nil {
		t.Fatal(err)
	}
	if graphHash(direct.Graph) != h {
		t.Errorf("the fallback's graph differs from a plan at its rho %d", fell.RhoUsed)
	}
	ample, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	var held []*lancet.Plan
	for range 3 {
		p, err := ample.Lancet(lancet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	if graphHash(fell.Graph) != h {
		t.Error("the fallback's graph changed when later plans were carved: it released what it kept")
	}
	for _, p := range append(held, fell, direct) {
		p.Release()
	}
}

// Plans released from many goroutines at once never share storage: eight
// goroutines plan, hash and release Lancet plans of three routings on
// views of one session, and every graph dumps like the same plan made
// alone. Under -race this also checks that a set released on one
// goroutine and carved on another is handed over through the pool.
func TestConcurrentReleasesCarveApart(t *testing.T) {
	sess, err := goldenShape{"gpt2-s", "a100x32", "uniform"}.session()
	if err != nil {
		t.Fatal(err)
	}
	views := []*lancet.Session{sess.WithWorkload(0, 0), sess.WithWorkload(1.2, 0), sess.WithWorkload(0, 0.3)}
	want := make([]string, len(views))
	for i, v := range views {
		p, err := v.Lancet(lancet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = graphHash(p.Graph)
		p.Release()
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 6 {
				i := (g + r) % len(views)
				p, err := views[i].Lancet(lancet.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if got := graphHash(p.Graph); got != want[i] {
					t.Errorf("goroutine %d round %d: view %d's graph dumps differently from the same plan made alone", g, r, i)
				}
				p.Release()
			}
		}()
	}
	wg.Wait()
}
