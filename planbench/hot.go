package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lancet/internal/service"
)

// hotWorkload is plan-hot: two clients read a fixed set of default
// requests (lancet plus the tutel baseline) with Zipf(1.1) popularity from
// a restarted service whose memory tier holds fewer entries than the
// store, so reads split between the memory and disk tiers and none misses.
type hotWorkload struct {
	keys  int // distinct requests; each is two plan-store entries
	cache int // memory-tier entries
	warm  int // single-threaded reads after the restart, part of set-up
	block int // ops per traced/untraced block of each client

	pop [][]byte // per key: the response population got
}

func newHotWorkload(small bool) *hotWorkload {
	if small {
		return &hotWorkload{keys: 16, cache: 12, warm: 100, block: 100}
	}
	return &hotWorkload{keys: 128, cache: 96, warm: 4000, block: 2000}
}

func (w *hotWorkload) name() string { return "plan-hot" }

// hotClients is plan-hot's client count.
const hotClients = 2

func (w *hotWorkload) clients() int { return hotClients }

// hotRequest is key k's request: the default configuration under its own
// simulation seed.
func hotRequest(seed int64, k int) ([]byte, error) {
	s := keySeed(seed, k)
	return json.Marshal(service.PlanRequest{Seed: &s})
}

// hotKeys draws client c's n reads: Zipf(1.1) over the keys, key 0 the
// most popular, seeded per client.
func hotKeys(seed int64, keys, c, n int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
	z := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// setUp computes every key's plans single-threaded, restarts the service
// on that store (the restore path) and warms the memory tier.
func (w *hotWorkload) setUp(b *bench) error {
	dir, err := b.storeDir()
	if err != nil {
		return err
	}
	cfg := service.Config{CacheSize: w.cache}
	if err := b.open(cfg, dir); err != nil {
		return err
	}
	rec := newRecorder()
	w.pop = make([][]byte, w.keys)
	for k := range w.pop {
		body, err := hotRequest(b.seed, k)
		if err != nil {
			return err
		}
		if _, _, err := b.serve(rec, "/v1/plan", body); err != nil {
			return err
		}
		if rec.code != 200 || rec.hdr.Get("X-Lancet-Cache") != "miss" {
			return fmt.Errorf("populating key %d: status %d, cache %q", k, rec.code, rec.hdr.Get("X-Lancet-Cache"))
		}
		w.pop[k] = bytes.Clone(rec.body.Bytes())
	}
	b.svc.Close()
	if err := b.open(cfg, dir); err != nil {
		return err
	}
	// Warm-up reads come from a client id no measured client uses.
	for _, k := range hotKeys(b.seed, w.keys, -1, w.warm) {
		if err := w.read(b, rec, k); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// read serves one key and checks the response against population.
func (w *hotWorkload) read(b *bench, rec *recorder, k int) error {
	body, err := hotRequest(b.seed, k)
	if err != nil {
		return err
	}
	if _, _, err := b.serve(rec, "/v1/plan", body); err != nil {
		return err
	}
	if rec.code != 200 || !bytes.Equal(rec.body.Bytes(), w.pop[k]) {
		return fmt.Errorf("key %d: status %d, body equal to population %t", k, rec.code, bytes.Equal(rec.body.Bytes(), w.pop[k]))
	}
	return nil
}

// measure runs two clients concurrently, each sending its half of n reads.
// Every response must be byte-identical to what its key got during
// population, whichever tier served it.
func (w *hotWorkload) measure(b *bench, n int, p *phase) {
	var wg sync.WaitGroup
	parts := make([]*phase, hotClients)
	for c := range parts {
		parts[c] = p.part()
		if c == 0 {
			parts[c].ref, parts[c].refEvery = p.ref, p.refEvery
		}
		share := n / hotClients
		if c < n%hotClients {
			share++
		}
		wg.Add(1)
		go func(c, share int) {
			defer wg.Done()
			w.client(b, c, share, parts[c])
		}(c, share)
	}
	wg.Wait()
	for _, q := range parts {
		p.merge(q)
	}
}

func (w *hotWorkload) client(b *bench, c, n int, p *phase) {
	keys := hotKeys(b.seed, w.keys, c, n)
	p.lat[0] = make([]time.Duration, 0, n)
	bodies := make([][]byte, w.keys)
	rec := newRecorder()
	for i, k := range keys {
		if p.expired() {
			return
		}
		t0 := time.Now()
		traced := b.tr != nil && (i/w.block)%2 == 1
		if bodies[k] == nil {
			var err error
			if bodies[k], err = hotRequest(b.seed, k); err != nil {
				b.fail("client %d op %d: %v", c, i, err)
				continue
			}
		}
		start, lat, err := b.serve(rec, "/v1/plan", bodies[k])
		if err != nil {
			b.fail("client %d op %d: %v", c, i, err)
			continue
		}
		p.record(lat, traced)
		state := rec.hdr.Get("X-Lancet-Cache")
		p.props["cache="+state]++
		p.props["baseline_attached"]++
		switch {
		case rec.code != 200:
			b.fail("client %d op %d: status %d: %s", c, i, rec.code, rec.body.String())
		case state != "hit" && state != "disk" && state != "shared":
			b.fail("client %d op %d: cache state %q, want a memory or disk hit", c, i, state)
		case !bytes.Equal(rec.body.Bytes(), w.pop[k]):
			b.fail("client %d op %d: key %d served from %s differs from its population response", c, i, k, state)
		}
		if traced {
			b.rootSpan(c*1_000_000_000+i, "/v1/plan", state, start, lat)
		}
		p.cycled(traced, time.Since(t0))
	}
}

// verify checks the tallies against /v1/stats: nothing was computed and
// the memory tier saw exactly two lookups per op. A lookup the memory tier
// missed is answered by the disk tier, by sharing a concurrent identical
// lookup, or, when it lost that race, by the store re-check under the
// flight; the last is not counted on its own, so hits only bound the sum.
func (w *hotWorkload) verify(b *bench, before, after service.StatsResponse, p *phase) {
	d := statsDelta(before, after)
	if d.computations != 0 || d.misses != 0 {
		b.problem("plan-hot: %d computations and %d misses during the measured phase, want 0", d.computations, d.misses)
	}
	if want := int64(2 * p.ops); d.lookups != want || d.memoryHits+d.diskHits+d.deduplicated > want {
		b.problem("plan-hot: %d lookups (memory %d + disk %d + shared %d), want 2 per op = %d", d.lookups, d.memoryHits, d.diskHits, d.deduplicated, want)
	}
	if p.ops > 0 && (d.memoryHits == 0 || d.diskHits == 0) {
		b.problem("plan-hot: memory tier served %d and disk tier %d lookups; both must serve reads", d.memoryHits, d.diskHits)
	}
	p.stats = d
}

// check has nothing left to do: every response was compared with its
// key's population response as it arrived, outside the op's timing.
func (w *hotWorkload) check(*bench) {}
