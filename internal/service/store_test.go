package service

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	s := newLRU[int](2)
	s.put("a", 1)
	s.put("b", 2)
	if _, ok := s.get("a"); !ok { // refresh a: now b is the LRU entry
		t.Fatal("a should be cached")
	}
	s.put("c", 3) // evicts b
	if _, ok := s.get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if v, ok := s.get("a"); !ok || v != 1 {
		t.Errorf("a should survive eviction, got %d, %t", v, ok)
	}
	if v, ok := s.get("c"); !ok || v != 3 {
		t.Errorf("c should be cached, got %d, %t", v, ok)
	}
	st := s.stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("size/capacity = %d/%d, want 2/2", st.Size, st.Capacity)
	}
	// 3 hits (a, a, c) and 1 miss (b).
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	s := newLRU[string](2)
	s.put("k", "old")
	s.put("k", "new")
	if v, _ := s.get("k"); v != "new" {
		t.Errorf("put must overwrite, got %q", v)
	}
	if st := s.stats(); st.Size != 1 {
		t.Errorf("size = %d, want 1", st.Size)
	}
}

func TestLRUValuesMostRecentFirst(t *testing.T) {
	s := newLRU[int](3)
	s.put("a", 1)
	s.put("b", 2)
	s.get("a")
	var vs []int
	s.withValues(func(snapshot []int) { vs = snapshot })
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("values = %v, want [1 2] (most recently used first)", vs)
	}
}

func TestFlightGroupDeduplicates(t *testing.T) {
	var g flightGroup[int]
	const callers = 16
	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var wg sync.WaitGroup
	results := make([]int, callers)

	wg.Add(1)
	go func() { // the leader blocks inside fn until everyone has piled up
		defer wg.Done()
		v, err, _ := g.do("k", func() (int, error) {
			calls++
			close(started)
			<-release
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0] = v
	}()
	<-started

	shared := make([]bool, callers)
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, sh := g.do("k", func() (int, error) {
				t.Error("follower must not run fn")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shared[i] = v, sh
		}()
	}
	// Followers must be registered as waiters before the leader finishes;
	// poll the dedup counter rather than sleeping.
	for g.dedupedCount() < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	for i := 1; i < callers; i++ {
		if !shared[i] {
			t.Errorf("caller %d should report a shared computation", i)
		}
	}
	if got := g.dedupedCount(); got != callers-1 {
		t.Errorf("dedupedCount = %d, want %d", got, callers-1)
	}
}

func TestFlightGroupKeysIndependent(t *testing.T) {
	var g flightGroup[string]
	for _, k := range []string{"a", "b"} {
		v, err, sh := g.do(k, func() (string, error) { return k, nil })
		if v != k || err != nil || sh {
			t.Errorf("do(%q) = %q, %v, shared=%t", k, v, err, sh)
		}
	}
}

func TestFlightGroupSurvivesPanic(t *testing.T) {
	var g flightGroup[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic must propagate")
			}
		}()
		g.do("k", func() (int, error) { panic("boom") })
	}()
	// The key must not stay wedged: the next caller becomes a fresh leader.
	v, err, sh := g.do("k", func() (int, error) { return 5, nil })
	if v != 5 || err != nil || sh {
		t.Errorf("do after panic = %d, %v, shared=%t; want 5, nil, false", v, err, sh)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	var g flightGroup[int]
	wantErr := fmt.Errorf("boom")
	if _, err, _ := g.do("k", func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	// The failed flight must not be remembered: the next call runs again.
	v, err, _ := g.do("k", func() (int, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Errorf("retry after error = %d, %v; want 7, nil", v, err)
	}
}
