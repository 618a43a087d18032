package service

import (
	"container/list"
	"sync"
)

// StoreStats is a snapshot of one LRU store's counters, rendered by
// /v1/stats.
type StoreStats struct {
	Capacity  int   `json:"capacity"`
	Size      int   `json:"size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lruStore is a bounded, mutex-guarded LRU cache from canonical request
// keys to immutable values. Values must never be mutated after put: hits
// hand the same pointer to concurrent readers.
type lruStore[V any] struct {
	// onEvict, when non-nil, is called under the store's lock with each
	// evicted value, so observers that read the store and an eviction
	// tally (e.g. /v1/stats) never see a value in neither. The callback
	// must not re-enter the store. Set it before concurrent use.
	onEvict func(V)

	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lruStore[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruStore[V]{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value and refreshes its recency.
func (s *lruStore[V]) get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	s.misses++
	var zero V
	return zero, false
}

// peek is get without touching the hit/miss counters — for singleflight
// re-checks that would otherwise count one request's lookup twice.
func (s *lruStore[V]) peek(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or refreshes a value, evicting the least recently used entry
// when over capacity.
func (s *lruStore[V]) put(key string, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.entries[key] = s.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry[V])
		delete(s.entries, e.key)
		s.evictions++
		if s.onEvict != nil {
			s.onEvict(e.val)
		}
	}
}

// withValues runs fn under the store's lock with every cached value, most
// recently used first. Because onEvict also runs under this lock, fn sees
// a cut where every value is in exactly one of (snapshot, eviction tally)
// — what an aggregation needs to stay monotonic across pool churn. fn must
// not re-enter the store.
func (s *lruStore[V]) withValues(fn func([]V)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := make([]V, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		vs = append(vs, el.Value.(*lruEntry[V]).val)
	}
	fn(vs)
}

func (s *lruStore[V]) stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Capacity:  s.capacity,
		Size:      s.ll.Len(),
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
	}
}
