package lancet

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/passes/dwsched"
)

type dwRunFunc = func(*ir.Graph, *cost.Model, dwsched.Options) (*dwsched.Result, error)

// hookDWRun replaces dwRun with wrap(dwRun) until the test ends.
func hookDWRun(t *testing.T, wrap func(dwRunFunc) dwRunFunc) {
	t.Helper()
	run := dwRun
	dwRun = wrap(run)
	t.Cleanup(func() { dwRun = run })
}

// countDWRuns counts dW pass runs until the test ends.
func countDWRuns(t *testing.T) *atomic.Int32 {
	t.Helper()
	var runs atomic.Int32
	hookDWRun(t, func(run dwRunFunc) dwRunFunc {
		return func(g *ir.Graph, cm *cost.Model, opts dwsched.Options) (*dwsched.Result, error) {
			runs.Add(1)
			return run(g, cm, opts)
		}
	})
	return &runs
}

// lancetPrices is what a Lancet plan reports: its dW overlap, pipelines,
// DP effort, optimizer-visible prediction and seed-17 simulation.
type lancetPrices struct {
	dwOverlapUs float64
	pipelines   []PipelineHint
	evaluations int
	predict     float64
	report      *Report
}

func lancetPricesOf(t *testing.T, p *Plan) lancetPrices {
	t.Helper()
	pred, err := p.PredictUs()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulate(17)
	if err != nil {
		t.Fatal(err)
	}
	return lancetPrices{p.DWOverlapUs, p.Pipelines, p.DPEvaluations, pred, rep}
}

// TestDWScheduleRunsOncePerKey pins the session's schedule memo (DESIGN.md
// §4). For each option set, eight goroutines plan at once on views of one
// GPT2-S 16×V100 session under the uniform, Zipf 1.2 and hot 0.3
// workloads, so the first calls race for the passes. The dW pass must run
// once per combination of PrioritizeAllToAll and DWFirstFit, never with
// DisableDWSchedule, and never again on a later call of the session or a
// new view; an option the passes do not read shares its key's run. Every
// plan must equal the same plan on a session of its own.
func TestDWScheduleRunsOncePerKey(t *testing.T) {
	runs := countDWRuns(t)
	base, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct{ skew, hot float64 }{{0, 0}, {1.2, 0}, {0, 0.3}}
	const callers = 8
	for _, c := range []struct {
		opts   Options
		passes int32
	}{
		{Options{}, 1},
		{Options{DWFirstFit: true}, 1},
		{Options{PrioritizeAllToAll: true}, 1},
		{Options{PrioritizeAllToAll: true, DWFirstFit: true}, 1},
		{Options{DisableDWSchedule: true}, 0},
		{Options{MaxPartitions: 4}, 0},
	} {
		want := make([]lancetPrices, len(workloads))
		for i, w := range workloads {
			own, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
			if err != nil {
				t.Fatal(err)
			}
			own.WorkloadSkew, own.WorkloadHotExpert = w.skew, w.hot
			p, err := own.Lancet(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = lancetPricesOf(t, p)
		}

		before := runs.Load()
		plans := make([]*Plan, callers)
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
				plans[i], errs[i] = view.Lancet(c.opts)
			}()
		}
		close(start)
		wg.Wait()
		if n := runs.Load() - before; n != c.passes {
			t.Errorf("options %+v: %d racing first calls ran the dW pass %d times, want %d", c.opts, callers, n, c.passes)
		}
		before = runs.Load()
		for _, sess := range []*Session{base, base.WithWorkload(1.2, 0)} {
			if _, err := sess.Lancet(c.opts); err != nil {
				t.Fatal(err)
			}
		}
		if n := runs.Load() - before; n != 0 {
			t.Errorf("options %+v: later calls ran the dW pass %d times", c.opts, n)
		}
		for i, p := range plans {
			if errs[i] != nil {
				t.Fatalf("options %+v caller %d: %v", c.opts, i, errs[i])
			}
			if got, w := lancetPricesOf(t, p), want[i%len(workloads)]; !reflect.DeepEqual(got, w) {
				t.Errorf("options %+v caller %d: plan %+v, report %+v; own session: %+v, report %+v",
					c.opts, i, got, *got.report, w, *w.report)
			}
		}
	}
}

// TestFlatViewRunsItsOwnSchedule pins the memo's bound: a View.Flat plan
// on the oversubscribed 32×V100 fleet prices on a record of its own, so it
// runs the passes on every call instead of reading the schedule the
// session priced on its real spine, and it equals the same plan on a
// session of its own. It fills no schedule slot and no gamma in the
// session's record, whose first real-spine plans run the pass once.
func TestFlatViewRunsItsOwnSchedule(t *testing.T) {
	runs := countDWRuns(t)
	over := func() *Session {
		cl, err := MustCluster("V100", 32).WithTopology(Topology{NodesPerRack: 2, Oversubscription: 4}.DefaultRacks())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(GPT2SMoE(0), cl)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	flat := Options{View: func(v View) View { return v.Flat() }}
	first := over()
	want, err := first.Lancet(flat)
	if err != nil {
		t.Fatal(err)
	}
	for key := range first.derived.schedules {
		if first.derived.schedules[key].done {
			t.Errorf("a flat plan filled the session's schedule slot %d", key)
		}
	}
	if first.derived.groupUs.done {
		t.Error("a flat plan filled the session's gamma")
	}
	before := runs.Load()
	for _, s := range []*Session{first, first.WithWorkload(0, 0)} {
		if _, err := s.Lancet(Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Load() - before; n != 1 {
		t.Errorf("two real-spine plans after a flat one ran the dW pass %d times, want 1", n)
	}
	sess := over()
	onSpine, err := sess.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if onSpine.DWOverlapUs == want.DWOverlapUs {
		t.Fatalf("the real and the flat spine schedule the same dW overlap, %v µs: the test cannot tell them apart", want.DWOverlapUs)
	}
	before = runs.Load()
	for _, s := range []*Session{sess, sess.WithWorkload(0, 0)} {
		got, err := s.Lancet(flat)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := lancetPricesOf(t, got), lancetPricesOf(t, want); !reflect.DeepEqual(g, w) {
			t.Errorf("flat plan %+v, report %+v; own session: %+v, report %+v", g, *g.report, w, *w.report)
		}
	}
	if n := runs.Load() - before; n != 2 {
		t.Errorf("two flat plans ran the dW pass %d times, want 2", n)
	}
}

// TestScheduleFailureIsSticky pins the memo's failure paths: a dW pass
// that errors fails every later plan of its key on the session and its
// views with the same error, and one that panics re-raises the same value
// on every call. Neither runs the pass again.
func TestScheduleFailureIsSticky(t *testing.T) {
	var runs atomic.Int32
	boom := errors.New("dW pass failed")
	var fail func() error
	hookDWRun(t, func(dwRunFunc) dwRunFunc {
		return func(*ir.Graph, *cost.Model, dwsched.Options) (*dwsched.Result, error) {
			runs.Add(1)
			return nil, fail()
		}
	})

	fail = func() error { return boom }
	s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	var first error
	for i, sess := range []*Session{s, s.WithWorkload(1.2, 0), s} {
		_, err := sess.Lancet(Options{})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: error %v, want the pass's", i, err)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Errorf("call %d: error %v, first call %v", i, err, first)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("three calls ran the failing pass %d times, want once", n)
	}

	runs.Store(0)
	fail = func() error { panic(boom) }
	s, err = NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	panicOf := func(sess *Session) (v any) {
		defer func() { v = recover() }()
		sess.Lancet(Options{})
		return nil
	}
	for i, sess := range []*Session{s, s.WithWorkload(1.2, 0), s} {
		if v := panicOf(sess); v != boom {
			t.Errorf("call %d: panicked with %v, want the pass's panic", i, v)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("three calls ran the panicking pass %d times, want once", n)
	}
	if m := &s.derived.schedules[0]; m.done || m.val.graph != nil {
		t.Errorf("a panicked pass left done %v, graph %p", m.done, m.val.graph)
	}
}
