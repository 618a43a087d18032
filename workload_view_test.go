package lancet_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"lancet"
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

// TestPlansIgnoreSharedSessionHistory pins what makes the service's
// routing-free session pool sound (DESIGN.md §7, §9). Workload views of one
// session share its cost model, whose op-profile memo keeps the first
// value priced in each half-octave FLOPs/bytes bucket, so a plan could
// depend on what the shared session priced before it. On each of the 15
// plan-cold model × fleet pairs, three seeded shuffles of 3 routings × 6
// option sets plan on views of one fresh session, and every
// service.Compute result must equal, byte for byte, the same computation
// on a session of its own.
func TestPlansIgnoreSharedSessionHistory(t *testing.T) {
	optionSets := []lancet.Options{
		{},
		{MaxPartitions: 4},
		{GroupUs: 1000},
		{DisableDWSchedule: true},
		{PrioritizeAllToAll: true},
		{MaxRangeGroups: 3},
	}
	type task struct{ routing, opts int }
	var tasks []task
	for r := range viewRoutings {
		for o := range optionSets {
			tasks = append(tasks, task{r, o})
		}
	}
	compute := func(sess *lancet.Session, tk task) []byte {
		t.Helper()
		res, err := service.Compute(sess, lancet.FrameworkLancet, 1, optionSets[tk.opts])
		if err != nil {
			t.Fatalf("compute %+v: %v", tk, err)
		}
		body, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		return body
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
			want[tk] = compute(sess, tk)
		}
		for order := int64(1); order <= 3; order++ {
			base, err := pair.session()
			if err != nil {
				t.Fatal(err)
			}
			shuffled := append([]task(nil), tasks...)
			rand.New(rand.NewSource(order)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for _, tk := range shuffled {
				r := viewRoutings[tk.routing]
				if got := compute(base.WithWorkload(r.skew, r.hot), tk); !bytes.Equal(got, want[tk]) {
					t.Errorf("%s %s, order %d, %s, options %+v: shared-session result\n%s\nwant (own session)\n%s",
						pair.model, pair.fleet, order, r.name, optionSets[tk.opts], got, want[tk])
				}
			}
		}
	}
}
