package lancet_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"lancet"
	"lancet/internal/netsim"
	"lancet/internal/service"
)

// viewRoutings are the plan-cold routings as (WorkloadSkew,
// WorkloadHotExpert) pairs, named as in goldenShape.
var viewRoutings = []struct {
	name      string
	skew, hot float64
}{
	{"uniform", 0, 0},
	{"zipf1.2", 1.2, 0},
	{"hot0.3", 0, 0.3},
}

// driftFleets are the fleets TestPlansIgnoreSharedSessionHistory runs
// drift chains on.
var driftFleets = map[string]bool{"v100x16": true, "a100x32": true, "v100x32-oversub4": true}

// driftAlpha is the Zipf exponent a drift chain streams at a step: a walk
// that turns back, offset per chain so the chains stream distinct profiles.
func driftAlpha(chain, step int) float64 {
	return []float64{0.6, 1.4, 0.9, 1.8, 1.1}[step] + 0.05*float64(chain)
}

// TestPlansIgnoreSharedSessionHistory pins what makes the service's
// routing-free session pool sound (DESIGN.md §7, §9, §16). Workload views
// of one session share its cost model, whose op-profile memo keeps the
// first value priced in each half-octave FLOPs/bytes bucket, so a plan
// could depend on what the shared session priced before it. On each of the
// 15 plan-cold model × fleet pairs, three seeded shuffles of 3 routings × 6
// option sets plan on views of one fresh session, and every
// service.Compute result must equal, byte for byte, the same computation
// on a session of its own. On the 16×V100, 32×A100 and oversubscribed
// 32×V100 fleets, each shuffle also interleaves four drift chains, one per
// option set in driftChainOptions: five re-plans, each on a fresh view
// with a streamed Zipf profile installed, as the service's drift loop
// plans them. Each must equal the same chain on a dedicated session that
// swaps its profile in place.
// The chains stream more profiles than a cost model keeps skew tables, so
// the shared session also evicts and rebuilds tables.
func TestPlansIgnoreSharedSessionHistory(t *testing.T) {
	optionSets := []lancet.Options{
		{},
		{MaxPartitions: 4},
		{GroupUs: 1000},
		{DisableDWSchedule: true},
		{PrioritizeAllToAll: true},
		{MaxRangeGroups: 3},
	}
	driftChainOptions := optionSets[:4]
	const chainSteps = 5
	type task struct{ routing, opts int }
	var tasks []task
	for r := range viewRoutings {
		for o := range optionSets {
			tasks = append(tasks, task{r, o})
		}
	}
	compute := func(sess *lancet.Session, opts lancet.Options) []byte {
		t.Helper()
		res, err := service.Compute(sess, lancet.FrameworkLancet, 1, opts)
		if err != nil {
			t.Fatalf("compute %+v: %v", opts, err)
		}
		body, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// replan installs the chain step's profile on sess and plans it.
	replan := func(sess *lancet.Session, chain, step int) []byte {
		t.Helper()
		if err := sess.SetWorkloadProfile(netsim.ZipfProfile(sess.Cluster.TotalGPUs(), driftAlpha(chain, step))); err != nil {
			t.Fatal(err)
		}
		return compute(sess, driftChainOptions[chain])
	}
	for _, pair := range goldenShapes() {
		if pair.routing != "uniform" {
			continue
		}
		want := make(map[task][]byte, len(tasks))
		for _, tk := range tasks {
			sess, err := goldenShape{pair.model, pair.fleet, viewRoutings[tk.routing].name}.session()
			if err != nil {
				t.Fatal(err)
			}
			want[tk] = compute(sess, optionSets[tk.opts])
		}
		// A schedule entry is a cold task, or the next step of drift chain
		// chain when chain >= 0.
		type entry struct {
			tk    task
			chain int
		}
		schedule := make([]entry, 0, len(tasks)+len(driftChainOptions)*chainSteps)
		for _, tk := range tasks {
			schedule = append(schedule, entry{tk, -1})
		}
		var wantChain [][][]byte
		if driftFleets[pair.fleet] {
			wantChain = make([][][]byte, len(driftChainOptions))
			for chain := range driftChainOptions {
				sess, err := pair.session()
				if err != nil {
					t.Fatal(err)
				}
				for step := range chainSteps {
					wantChain[chain] = append(wantChain[chain], replan(sess, chain, step))
					schedule = append(schedule, entry{chain: chain})
				}
			}
		}
		for order := int64(1); order <= 3; order++ {
			base, err := pair.session()
			if err != nil {
				t.Fatal(err)
			}
			shuffled := append([]entry(nil), schedule...)
			rand.New(rand.NewSource(order)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			steps := make([]int, len(driftChainOptions))
			for _, e := range shuffled {
				if e.chain < 0 {
					r := viewRoutings[e.tk.routing]
					if got := compute(base.WithWorkload(r.skew, r.hot), optionSets[e.tk.opts]); !bytes.Equal(got, want[e.tk]) {
						t.Errorf("%s %s, order %d, %s, options %+v: shared-session result\n%s\nwant (own session)\n%s",
							pair.model, pair.fleet, order, r.name, optionSets[e.tk.opts], got, want[e.tk])
					}
					continue
				}
				step := steps[e.chain]
				steps[e.chain]++
				if got, w := replan(base.WithWorkload(0, 0), e.chain, step), wantChain[e.chain][step]; !bytes.Equal(got, w) {
					t.Errorf("%s %s, order %d, drift chain %d step %d (Zipf %g), options %+v: shared-session re-plan\n%s\nwant (dedicated session)\n%s",
						pair.model, pair.fleet, order, e.chain, step, driftAlpha(e.chain, step), driftChainOptions[e.chain], got, w)
				}
			}
		}
	}
}
