package cache

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheUnderContention mixes Get, Do, Fill and Delete from many
// goroutines over four times more keys than the cache holds (run it under
// -race). Every value returned equals its key's build output, no key ever
// has two builds running at once, Len never exceeds the capacity and no
// counter in Stats ever decreases.
func TestCacheUnderContention(t *testing.T) {
	const (
		capacity   = 8
		keys       = 4 * capacity
		goroutines = 16
		ops        = 2000
	)
	c := New[int, string](capacity)
	want := func(k int) string { return fmt.Sprintf("value-%d", k) }
	var running [keys]atomic.Int32
	var builds atomic.Int64
	build := func(k int) func() (string, error) {
		return func() (string, error) {
			if n := running[k].Add(1); n != 1 {
				t.Errorf("key %d: %d builds running at once", k, n)
			}
			builds.Add(1)
			runtime.Gosched() // widen the window for joiners and deletes
			running[k].Add(-1)
			return want(k), nil
		}
	}

	stop := make(chan struct{})
	monitored := make(chan struct{})
	go func() { // Stats must be monotonic between any two snapshots
		defer close(monitored)
		var last Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := c.Stats()
			if st.Hits < last.Hits || st.Misses < last.Misses ||
				st.Evictions < last.Evictions || st.Deduplicated < last.Deduplicated {
				t.Errorf("stats went backwards: %+v after %+v", st, last)
			}
			if st.Size > st.Capacity {
				t.Errorf("size %d exceeds capacity %d", st.Size, st.Capacity)
			}
			last = st
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 24))
			for range ops {
				k := rng.IntN(keys)
				var v string
				var ok bool
				var err error
				switch rng.IntN(4) {
				case 0:
					v, ok = c.Get(k)
				case 1:
					v, _, err = c.Do(k, build(k))
					ok = true
				case 2:
					v, _, err = c.Fill(k, build(k))
					ok = true
				case 3:
					c.Delete(k)
				}
				if err != nil {
					t.Errorf("key %d: %v", k, err)
				}
				if ok && v != want(k) {
					t.Errorf("key %d: got %q, want %q", k, v, want(k))
				}
				if n := c.Len(); n > capacity {
					t.Errorf("Len %d exceeds capacity %d", n, capacity)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-monitored
	st := c.Stats()
	if builds.Load() == 0 || st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("the mix exercised too little: %d builds, stats %+v", builds.Load(), st)
	}
}

// TestDeleteDuringBuild pins the race InvalidateProfile relies on: a
// Delete of a key whose build is in flight keeps that build's value out of
// the cache, while the build's leader and its waiters still receive it.
func TestDeleteDuringBuild(t *testing.T) {
	c := New[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	leader, waiter := make(chan int, 1), make(chan int, 1)
	go func() {
		v, _, _ := c.Fill("k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		leader <- v
	}()
	<-started
	go func() {
		v, _, _ := c.Fill("k", func() (int, error) {
			t.Error("a waiter must not build")
			return 0, nil
		})
		waiter <- v
	}()
	for c.Stats().Deduplicated < 1 {
		runtime.Gosched()
	}
	c.Delete("k")
	close(release)
	if v := <-leader; v != 7 {
		t.Errorf("leader got %d, want 7", v)
	}
	if v := <-waiter; v != 7 {
		t.Errorf("waiter got %d, want 7", v)
	}
	if n := c.Len(); n != 0 {
		t.Errorf("a build deleted in flight was stored: Len %d", n)
	}
	v, src, err := c.Do("k", func() (int, error) { return 8, nil })
	if v != 8 || src != Built || err != nil {
		t.Errorf("Do after the delete = %d, %d, %v; want a fresh build of 8", v, src, err)
	}
}

// BenchmarkCacheHit is the shared hit path: a Get on a warm cache of 256
// plan-key-sized string keys. A plan-store hit takes two of these, and
// every routing-proxy and skew-table lookup one.
func BenchmarkCacheHit(b *testing.B) {
	const n = 256
	c := New[string, int](n)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("GPT2-S-MoE|V100|16|b16|switch|sharedfalse|zero3false|rt=zipf(%d)|topo=flat|lancet|seed1|"+
			"{MaxPartitions:0 GroupUs:0 MaxRangeGroups:0 DisableDWSchedule:false DisablePartition:false DWFirstFit:false "+
			"PrioritizeAllToAll:false AssumeUniformRouting:false AssumeFlatTopology:false AssumeUniformHardware:false AssumeSoleTenancy:false}", i)
		fill(c, keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, ok := c.Get(keys[i%n]); !ok {
			b.Fatal("warm cache missed")
		}
	}
}
