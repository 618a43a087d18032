package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTestBench(t *testing.T, seed int64) *bench {
	t.Helper()
	b := &bench{seed: seed, work: t.TempDir()}
	t.Cleanup(b.closeService)
	return b
}

func newTestPhase() *phase { return newPhase(time.Now().Add(time.Minute)) }

func TestColdOpsDeterministicPerSeed(t *testing.T) {
	const shapes, n = 45, 180
	a, again, other := coldOps(1, shapes, n), coldOps(1, shapes, n), coldOps(2, shapes, n)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("coldOps differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("coldOps is the same for seeds 1 and 2")
	}
	// The mix is the same for every seed: each shape n/shapes times, with
	// the baseline attached in half of them.
	mix := func(ops []coldOp) (uses, tutel map[int]int) {
		uses, tutel = make(map[int]int), make(map[int]int)
		seen := make(map[int64]bool)
		for _, op := range ops {
			uses[op.shape]++
			if op.tutel {
				tutel[op.shape]++
			}
			if seen[op.seed] {
				t.Fatalf("seed %d repeats: two ops would share a plan-store key", op.seed)
			}
			seen[op.seed] = true
		}
		return uses, tutel
	}
	ua, ta := mix(a)
	uo, to := mix(other)
	for s := 0; s < shapes; s++ {
		if ua[s] != n/shapes || uo[s] != n/shapes || ta[s] != n/shapes/2 || to[s] != n/shapes/2 {
			t.Fatalf("shape %d: uses %d/%d, with baseline %d/%d; want %d and %d for both seeds",
				s, ua[s], uo[s], ta[s], to[s], n/shapes, n/shapes/2)
		}
	}
}

func TestHotKeysDeterministicPerSeed(t *testing.T) {
	a := hotKeys(1, 128, 0, 1000)
	if !reflect.DeepEqual(a, hotKeys(1, 128, 0, 1000)) {
		t.Fatal("hotKeys differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, hotKeys(2, 128, 0, 1000)) {
		t.Fatal("hotKeys is the same for seeds 1 and 2")
	}
	if reflect.DeepEqual(a, hotKeys(1, 128, 1, 1000)) {
		t.Fatal("both clients draw the same keys")
	}
	for _, k := range a {
		if k < 0 || k >= 128 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestDriftWalkDeterministicPerSeed(t *testing.T) {
	walk := func(seed int64) []float64 {
		w := &driftWorkload{rng: rand.New(rand.NewSource(seed))}
		j := &driftJob{alpha: 1, dir: 1, gpus: 32}
		var out []float64
		for range 300 {
			w.counts(j)
			if j.alpha < driftLo || j.alpha > driftHi {
				t.Fatalf("alpha %g left [%g, %g]", j.alpha, driftLo, driftHi)
			}
			out = append(out, j.alpha)
		}
		return out
	}
	a := walk(1)
	if !reflect.DeepEqual(a, walk(1)) {
		t.Fatal("the walk differs between two runs with one seed")
	}
	if reflect.DeepEqual(a, walk(2)) {
		t.Fatal("the walk is the same for seeds 1 and 2")
	}
}

// tamper changes the first digit of the first "iteration_ms" value.
func tamper(t *testing.T, body []byte) []byte {
	t.Helper()
	out := bytes.Clone(body)
	i := bytes.Index(out, []byte(`"iteration_ms": `))
	if i < 0 {
		t.Fatalf("no iteration_ms in %s", body)
	}
	d := i + len(`"iteration_ms": `)
	out[d] = '0' + (out[d]-'0'+1)%10
	return out
}

func TestColdCheckCatchesTamperedBody(t *testing.T) {
	b := newTestBench(t, 3)
	w := newColdWorkload(true)
	if err := w.setUp(b); err != nil {
		t.Fatal(err)
	}
	p := newTestPhase()
	before := b.svc.Stats()
	w.measure(b, 6, p)
	w.verify(b, before, b.svc.Stats(), p)
	w.check(b)
	if b.failed != 0 || len(b.failures) != 0 {
		t.Fatalf("untampered run failed: %v", b.failures)
	}
	for i, k := range w.kept {
		k.body = tamper(t, k.body)
		w.kept[i] = k
		break
	}
	w.check(b)
	if b.failed == 0 {
		t.Fatal("the check accepted a tampered response body")
	}
	if !strings.Contains(strings.Join(b.failures, "\n"), "service.Compute on a fresh session") {
		t.Errorf("failures do not name the recompute mismatch: %v", b.failures)
	}
}

func TestHotCheckCatchesTamperedBody(t *testing.T) {
	for _, tampered := range []bool{false, true} {
		b := newTestBench(t, 5)
		w := newHotWorkload(true)
		if err := w.setUp(b); err != nil {
			t.Fatal(err)
		}
		if tampered {
			w.pop[0] = tamper(t, w.pop[0]) // key 0 is the most popular
		}
		p := newTestPhase()
		before := b.svc.Stats()
		w.measure(b, 200, p)
		w.verify(b, before, b.svc.Stats(), p)
		switch {
		case !tampered && len(b.failures) != 0:
			t.Fatalf("untampered run failed: %v", b.failures)
		case tampered && b.failed == 0:
			t.Fatal("the check accepted a tampered response body")
		}
		b.closeService()
	}
}

// TestDriftReplanCountRepeats pins that the number of re-plans is fixed by
// the seed: two in-process runs of one seed re-plan equally often, and the
// traffic tallies and landed plans check out.
func TestDriftReplanCountRepeats(t *testing.T) {
	var counts []int64
	for range 2 {
		b := newTestBench(t, 7)
		w := newDriftWorkload(true)
		if err := w.setUp(b); err != nil {
			t.Fatal(err)
		}
		p := newTestPhase()
		before := b.svc.Stats()
		w.measure(b, 60, p)
		w.verify(b, before, b.svc.Stats(), p)
		w.check(b)
		if len(b.failures) != 0 {
			t.Fatalf("drift run failed: %v", b.failures)
		}
		counts = append(counts, p.replans)
		b.closeService()
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Fatalf("re-plan counts %v, want two equal positive counts", counts)
	}
}
