package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// fill stores v under k through a build that returns it.
func fill[V any](c *Cache[string, V], k string, v V) {
	c.Fill(k, func() (V, error) { return v, nil }) //nolint:errcheck // the build cannot fail
}

func TestLRUEviction(t *testing.T) {
	s := New[string, int](2)
	fill(s, "a", 1)
	fill(s, "b", 2)
	if _, ok := s.Get("a"); !ok { // refresh a: now b is the LRU entry
		t.Fatal("a should be cached")
	}
	fill(s, "c", 3) // evicts b
	if _, ok := s.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if v, ok := s.Get("a"); !ok || v != 1 {
		t.Errorf("a should survive eviction, got %d, %t", v, ok)
	}
	if v, ok := s.Get("c"); !ok || v != 3 {
		t.Errorf("c should be cached, got %d, %t", v, ok)
	}
	st := s.Stats()
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

func TestLRUFillRechecksCached(t *testing.T) {
	s := New[string, string](2)
	fill(s, "k", "old")
	v, src, err := s.Fill("k", func() (string, error) {
		t.Error("a cached key must not be rebuilt")
		return "new", nil
	})
	if v != "old" || src != Rechecked || err != nil {
		t.Errorf("Fill of a cached key = %q, %d, %v; want old, Rechecked, nil", v, src, err)
	}
	if st := s.Stats(); st.Size != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("size/hits/misses = %d/%d/%d, want 1/0/0", st.Size, st.Hits, st.Misses)
	}
}

func TestLRUValuesMostRecentFirst(t *testing.T) {
	s := New[string, int](3)
	fill(s, "a", 1)
	fill(s, "b", 2)
	s.Get("a")
	var vs []int
	s.Values(func(snapshot []int) { vs = snapshot })
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("values = %v, want [1 2] (most recently used first)", vs)
	}
}

func TestFlightGroupDeduplicates(t *testing.T) {
	g := New[string, int](1)
	const callers = 16
	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var wg sync.WaitGroup
	results := make([]int, callers)

	wg.Add(1)
	go func() { // the leader blocks inside build until everyone has piled up
		defer wg.Done()
		v, _, err := g.Fill("k", func() (int, error) {
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

	srcs := make([]Source, callers)
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, src, err := g.Fill("k", func() (int, error) {
				t.Error("follower must not run build")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], srcs[i] = v, src
		}()
	}
	// Followers must be registered as waiters before the leader finishes;
	// poll the dedup counter rather than sleeping.
	for g.Stats().Deduplicated < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Errorf("build ran %d times, want 1", calls)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	for i := 1; i < callers; i++ {
		if srcs[i] != Shared {
			t.Errorf("caller %d should report a shared build, got source %d", i, srcs[i])
		}
	}
	if got := g.Stats().Deduplicated; got != callers-1 {
		t.Errorf("deduplicated = %d, want %d", got, callers-1)
	}
}

func TestFlightGroupKeysIndependent(t *testing.T) {
	g := New[string, string](2)
	for _, k := range []string{"a", "b"} {
		v, src, err := g.Fill(k, func() (string, error) { return k, nil })
		if v != k || err != nil || src != Built {
			t.Errorf("Fill(%q) = %q, %v, source %d", k, v, err, src)
		}
	}
}

func TestFlightGroupSurvivesPanic(t *testing.T) {
	g := New[string, int](1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic must propagate")
			}
		}()
		g.Fill("k", func() (int, error) { panic("boom") }) //nolint:errcheck // panics
	}()
	// The key must not stay wedged: the next caller becomes a fresh leader.
	v, src, err := g.Fill("k", func() (int, error) { return 5, nil })
	if v != 5 || err != nil || src != Built {
		t.Errorf("Fill after panic = %d, %v, source %d; want 5, nil, Built", v, err, src)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	g := New[string, int](1)
	wantErr := fmt.Errorf("boom")
	if _, _, err := g.Fill("k", func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	// The failed build must not be stored: the next call runs again.
	v, _, err := g.Fill("k", func() (int, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Errorf("retry after error = %d, %v; want 7, nil", v, err)
	}
}
