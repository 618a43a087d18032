package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// tier_test.go is the two-tier plan store's property suite, run under
// -race in CI: a Zipf-keyed mix is mostly served from the two tiers, stats
// stay monotonic while both tiers churn, and concurrent writers never
// produce a torn or mixed artifact.

// TestZipfMixHitRate is the store's hit-rate gate (DESIGN.md §14): 5,000
// /v1/plan requests over 512 keys drawn Zipf(1.1) from a seeded RNG,
// against a 128-entry memory tier over a disk store. Key i is the raf
// baseline (no DP) under seed i, so every key is its own plan-store entry
// while the session pool stays hot. More than half the lookups must be
// hits, both tiers must serve some, and every request lands in exactly one
// tier outcome.
func TestZipfMixHitRate(t *testing.T) {
	const requests, keys = 5000, 512
	svc, err := Open(Config{CacheSize: 128}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
	for range requests {
		body := fmt.Sprintf(`{"framework": "raf", "baseline": "none", "seed": %d}`, zipf.Uint64())
		if w := postPlan(t, h, body); w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", body, w.Code, w.Body)
		}
	}
	st := svc.Stats()
	tiers := st.PlanTiers
	t.Logf("plan tiers %+v", tiers)
	if tiers.CombinedHitRate <= 0.5 {
		t.Errorf("combined hit rate %.3f, want > 0.5", tiers.CombinedHitRate)
	}
	if tiers.MemoryHits == 0 {
		t.Error("a Zipf mix must land memory-tier hits")
	}
	if tiers.DiskHits == 0 {
		t.Error("a 128-entry memory tier over 512 keys must spill to the disk tier")
	}
	if st.DiskStore == nil || st.DiskStore.Writes == 0 {
		t.Errorf("no disk writes recorded: %+v", st.DiskStore)
	}
	if total := tiers.MemoryHits + tiers.DiskHits + tiers.Misses + st.Deduplicated; total != requests {
		t.Errorf("tier outcomes sum to %d, want %d", total, requests)
	}
}

// snapshotCounters flattens the monotonic subset of a StatsResponse.
func snapshotCounters(st StatsResponse) map[string]int64 {
	m := map[string]int64{
		"memory_hits":    st.PlanTiers.MemoryHits,
		"disk_hits":      st.PlanTiers.DiskHits,
		"tier_misses":    st.PlanTiers.Misses,
		"computations":   st.Computations,
		"dp_evaluations": st.DPEvaluations,
		"store_hits":     st.PlanStore.Hits,
		"store_misses":   st.PlanStore.Misses,
	}
	if ds := st.DiskStore; ds != nil {
		m["d_hits"] = ds.Hits
		m["d_misses"] = ds.Misses
		m["d_corrupt"] = ds.Corrupt
		m["d_writes"] = ds.Writes
		m["d_write_errs"] = ds.WriteErrors
		m["d_bytes_read"] = ds.BytesRead
		m["d_bytes_written"] = ds.BytesWritten
		m["d_load_us"] = ds.LoadUs
	}
	return m
}

// TestTwoTierStatsMonotonicUnderChurn hammers a deliberately undersized
// memory tier from concurrent clients while a scraper polls /v1/stats, and
// asserts no monotonic counter ever goes backwards between scrapes — the
// property that makes the counters usable as rates. Run with -race.
func TestTwoTierStatsMonotonicUnderChurn(t *testing.T) {
	svc, err := Open(Config{CacheSize: 2, Parallel: 4}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	// 6 distinct keys over a 2-entry LRU: every worker pass churns the
	// memory tier and lands disk hits, misses, writes and promotions.
	bodies := make([]string, 6)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"framework": "raf", "baseline": "none", "seed": %d}`, i)
	}

	var stop atomic.Bool
	scrapeErr := make(chan error, 1)
	go func() {
		prev := snapshotCounters(svc.Stats())
		for !stop.Load() {
			cur := snapshotCounters(svc.Stats())
			for k, v := range cur {
				if v < prev[k] {
					select {
					case scrapeErr <- fmt.Errorf("%s went backwards: %d -> %d", k, prev[k], v):
					default:
					}
					return
				}
			}
			prev = cur
		}
		scrapeErr <- nil
	}()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				rec := postPlan(t, h, bodies[(w+i)%len(bodies)])
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.PlanTiers.DiskHits == 0 {
		t.Error("churn over an undersized LRU should land disk hits")
	}
	if st.PlanTiers.Misses != int64(len(bodies)) {
		t.Errorf("tier misses = %d, want %d (one per distinct key)", st.PlanTiers.Misses, len(bodies))
	}
	// Every lookup is accounted to exactly one outcome: hits + shared
	// flights + misses cover all requests.
	total := st.PlanTiers.MemoryHits + st.PlanTiers.DiskHits + st.Deduplicated + st.PlanTiers.Misses
	if want := int64(workers * 24); total != want {
		t.Errorf("tier outcomes sum to %d, want %d requests", total, want)
	}
	if st.Computations != int64(len(bodies)) {
		t.Errorf("computations = %d, want %d (each key computed once, then served from a tier)",
			st.Computations, len(bodies))
	}
}

// TestConcurrentPutsNeverServeTornArtifacts races writers flipping one key
// between two payloads against readers, directly on the disk store. Every
// read must see exactly one of the two complete payloads — the atomicity
// tmp+rename buys — and nothing may ever count as corrupt. Run with -race.
func TestConcurrentPutsNeverServeTornArtifacts(t *testing.T) {
	d, err := openDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "contended-key"
	a := bytes.Repeat([]byte("A"), 4096)
	b := bytes.Repeat([]byte("B"), 4096)
	d.put(key, a)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := a
			if w%2 == 1 {
				payload = b
			}
			for i := 0; i < 50; i++ {
				d.put(key, payload)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := d.get(key)
				if !ok {
					t.Error("contended key vanished mid-race")
					return
				}
				if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
					t.Errorf("read a torn artifact: %d bytes, first byte %q", len(got), got[0])
					return
				}
			}
		}()
	}
	wg.Wait()

	st := d.stats()
	if st.Corrupt != 0 {
		t.Errorf("concurrent same-key puts produced %d corrupt reads", st.Corrupt)
	}
	if st.WriteErrors != 0 {
		t.Errorf("concurrent same-key puts produced %d write errors", st.WriteErrors)
	}
	if st.Artifacts != 1 {
		t.Errorf("artifact gauge = %d, want 1", st.Artifacts)
	}
	// The survivor on disk must itself be a complete artifact.
	got, ok := d.get(key)
	if !ok || (!bytes.Equal(got, a) && !bytes.Equal(got, b)) {
		t.Error("final artifact is not one of the written payloads")
	}
}
