// Package cache is the one bounded, build-once memo of this module: the
// serving layer's plan store, session pool and drift sessions, the cost
// model's skew-table registry and the process-wide routing-proxy memo all
// run on Cache (DESIGN.md §1). It is an LRU with one eviction policy and
// one set of counters, with concurrent builds of one key deduplicated — a
// minimal reimplementation of golang.org/x/sync/singleflight folded into
// the LRU, since this module has no dependencies outside the standard
// library.
package cache

import (
	"container/list"
	"errors"
	"sync"
)

// Source reports how Do or Fill obtained a value.
type Source uint8

const (
	// Hit: Do's lookup found the value cached.
	Hit Source = iota
	// Rechecked: the value was stored between the caller's miss and its
	// Fill, by another caller's build.
	Rechecked
	// Shared: the caller joined a build of the key already in flight.
	Shared
	// Built: the caller ran the build.
	Built
)

// Stats is a snapshot of one cache's counters. Hits and Misses count
// lookups (Get, and Do's); Deduplicated counts Fill calls that joined a
// build in flight. All but Size are monotonic.
type Stats struct {
	Capacity     int
	Size         int
	Hits         int64
	Misses       int64
	Evictions    int64
	Deduplicated int64
}

// Cache is a bounded, mutex-guarded LRU from keys to immutable values
// whose misses are filled by a build that runs once per key at a time.
// Values must never be mutated after they are stored: hits hand the same
// value to concurrent readers. Obtain one from New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       list.List // front = most recently used
	entries  map[K]*list.Element
	flights  map[K]*flight[V]
	onEvict  func(V)

	hits, misses, evictions, deduplicated int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one build in progress. Its waiters read val and err once wg
// is released. forgotten, set by Delete under the cache's lock, keeps the
// build's value out of the cache.
type flight[V any] struct {
	wg        sync.WaitGroup
	val       V
	err       error
	forgotten bool
}

// New returns an empty cache of at most capacity values (at least one).
// It allocates only the struct; the maps are made on first use, so a
// cache that is never filled costs one allocation.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: max(capacity, 1)}
}

// OnEvict sets fn to run with every value evicted for capacity. It runs
// under the cache's lock, so an observer that reads Values and an
// eviction tally (e.g. /v1/stats) never sees a value in neither. fn must
// not re-enter the cache. Set it before concurrent use; Delete does not
// call it.
func (c *Cache[K, V]) OnEvict(fn func(V)) { c.onEvict = fn }

// Get returns the cached value for k, refreshing its recency, and counts
// the lookup as a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Do is Get, then Fill on a miss.
func (c *Cache[K, V]) Do(k K, build func() (V, error)) (V, Source, error) {
	if v, ok := c.Get(k); ok {
		return v, Hit, nil
	}
	return c.Fill(k, build)
}

// Fill serves a lookup of k that missed, without counting another
// lookup. A caller that finds a build of k in flight waits for it and
// shares its outcome (Shared). Otherwise it leads: it returns the value
// another build stored since its miss (Rechecked), or runs build (Built).
// A successful value is stored before the flight ends, so concurrent
// fills of one key build it once; an error reaches the flight's callers
// and is not stored. A panicking build releases its waiters with an error
// and re-panics in the leader.
func (c *Cache[K, V]) Fill(k K, build func() (V, error)) (V, Source, error) {
	c.mu.Lock()
	if f, ok := c.flights[k]; ok {
		c.deduplicated++
		c.mu.Unlock()
		f.wg.Wait()
		return f.val, Shared, f.err
	}
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, Rechecked, nil
	}
	f := &flight[V]{}
	f.wg.Add(1)
	if c.flights == nil {
		c.flights = make(map[K]*flight[V])
	}
	c.flights[k] = f
	c.mu.Unlock()

	// The flight must end even if build panics: net/http recovers handler
	// panics, so a server would live on with the waiters blocked forever
	// and the key wedged.
	finished := false
	defer func() {
		if !finished {
			f.err = errors.New("cache: build panicked")
		}
		c.mu.Lock()
		delete(c.flights, k)
		if f.err == nil && !f.forgotten {
			c.put(k, f.val)
		}
		c.mu.Unlock()
		f.wg.Done()
	}()
	f.val, f.err = build()
	finished = true
	return f.val, Built, f.err
}

// Delete drops k's cached value and keeps a build of k in flight from
// storing its value; that build's callers still receive it.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.Remove(el)
		delete(c.entries, k)
	}
	if f, ok := c.flights[k]; ok {
		f.forgotten = true
	}
}

// put stores val under k, which is not cached (only the flight of k
// stores it), as the most recently used value, evicting the least
// recently used ones beyond capacity. c.mu must be held.
func (c *Cache[K, V]) put(k K, val V) {
	if c.entries == nil {
		c.entries = make(map[K]*list.Element, c.capacity)
	}
	c.entries[k] = c.ll.PushFront(&entry[K, V]{key: k, val: val})
	for c.ll.Len() > c.capacity {
		e := c.ll.Remove(c.ll.Back()).(*entry[K, V])
		delete(c.entries, e.key)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(e.val)
		}
	}
}

// Values runs fn under the cache's lock with every cached value, most
// recently used first. Because OnEvict runs under the same lock, fn sees a
// cut where every value is in exactly one of (snapshot, eviction tally):
// what an aggregate needs to stay monotonic across churn. fn must not
// re-enter the cache.
func (c *Cache[K, V]) Values(fn func([]V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		vs = append(vs, el.Value.(*entry[K, V]).val)
	}
	fn(vs)
}

// Len reports how many values the cache holds.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Capacity:     c.capacity,
		Size:         c.ll.Len(),
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		Deduplicated: c.deduplicated,
	}
}
