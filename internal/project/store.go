package project

import (
	"container/list"
	"sync"

	"psketch/internal/circuit"
	"psketch/internal/obs"
)

// WarmState is the reusable per-sketch encoding context a synthesis run
// builds and a later run of the *same* sketch can start from: the
// hash-consed circuit builder (which already holds every structural
// constraint and projected clause encoded so far), the hole input
// words allocated on it, and the projection cache with its prefix trie
// of memoized trace-prefix encodings. All three are bound together —
// circuit literals are only meaningful within their builder — so they
// are checked out and returned as one unit.
//
// Soundness: everything retained here is a fact about the sketch's
// whole candidate space (structural constraints, hash-consed circuit
// nodes, projection trie nodes keyed by trace entries), never about one
// job's candidate or schedule, so replaying a warm context for a new
// request of the same (source, target, desugar options) triple yields
// bit-identical encodings — internal/sketches' warm cross-check pins
// verdict parity on the Table 1 rows.
//
// A WarmState is single-goroutine (the Cache owns one persistent
// evaluator); the Store's checkout discipline enforces that at most one
// synthesizer uses it at a time.
type WarmState struct {
	B     *circuit.Builder
	Holes []circuit.Word
	Cache *Cache
}

// SizeBytes estimates the context's retained memory (the store's LRU
// eviction unit): the builder's encoded clauses plus the projection
// cache's prefix trie.
func (w *WarmState) SizeBytes() int64 {
	if w == nil || w.Cache == nil {
		return 0
	}
	return w.Cache.SizeBytes()
}

// StoreStats is a point-in-time view of a Store's effectiveness.
type StoreStats struct {
	Hits      int64 // Acquire calls that found an idle context
	Misses    int64 // Acquire calls that found none
	Evictions int64 // contexts dropped by the byte bound
	Entries   int   // idle contexts currently held
	Bytes     int64 // estimated retained bytes of idle contexts
}

// Store is the cross-request warm-state cache: idle WarmStates keyed by
// sketch hash, bounded by total estimated bytes, evicted least-recently
// -used first. It is safe for concurrent use by many synthesizers; a
// context is EXCLUSIVELY checked out by Acquire and only becomes
// shareable again when Release returns it, so the single-goroutine
// contract of Cache is never violated even when identical sketches run
// concurrently (the loser of the Acquire race simply builds cold and
// the last Release wins the idle slot).
//
// A nil *Store is valid and inert: Acquire returns nil, Release drops
// the context.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	byKey    map[string]*list.Element
	lru      *list.List // front = most recently used; values are *storeEntry
	curBytes int64

	hits, misses, evictions int64

	// Registry counters (nil-safe): warm.hits / warm.misses /
	// warm.evictions accumulate, warm.bytes / warm.entries are gauges.
	cHits, cMisses, cEvict *obs.Counter
	cBytes, cEntries       *obs.Counter
}

type storeEntry struct {
	key  string
	w    *WarmState
	size int64
}

// NewStore builds a warm-state store bounded to maxBytes of estimated
// retained memory (<= 0 means unbounded). Counters are registered in m
// (nil for none) under the warm.* names.
func NewStore(maxBytes int64, m *obs.Metrics) *Store {
	return &Store{
		maxBytes: maxBytes,
		byKey:    make(map[string]*list.Element),
		lru:      list.New(),
		cHits:    m.Counter("warm.hits"),
		cMisses:  m.Counter("warm.misses"),
		cEvict:   m.Counter("warm.evictions"),
		cBytes:   m.Counter("warm.bytes"),
		cEntries: m.Counter("warm.entries"),
	}
}

// Acquire checks out the idle context for key, or returns nil (a miss:
// no context cached, or the cached one is currently checked out by
// another run). The caller owns the returned context until Release.
func (s *Store) Acquire(key string) *WarmState {
	if s == nil || key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		s.misses++
		s.cMisses.Add(1)
		return nil
	}
	en := el.Value.(*storeEntry)
	s.lru.Remove(el)
	delete(s.byKey, key)
	s.curBytes -= en.size
	s.hits++
	s.cHits.Add(1)
	s.gauges()
	return en.w
}

// Release returns a context to the idle set (typically after a
// synthesis run grew it) and evicts least-recently-used contexts while
// the byte bound is exceeded. If an idle context for key already exists
// — a concurrent run of the same sketch released first — the newly
// released one replaces it (it is at least as warm). Releasing to a nil
// store drops the context.
func (s *Store) Release(key string, w *WarmState) {
	if s == nil || key == "" || w == nil {
		return
	}
	size := w.SizeBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		old := el.Value.(*storeEntry)
		s.lru.Remove(el)
		delete(s.byKey, key)
		s.curBytes -= old.size
	}
	en := &storeEntry{key: key, w: w, size: size}
	s.byKey[key] = s.lru.PushFront(en)
	s.curBytes += size
	for s.maxBytes > 0 && s.curBytes > s.maxBytes && s.lru.Len() > 0 {
		back := s.lru.Back()
		victim := back.Value.(*storeEntry)
		s.lru.Remove(back)
		delete(s.byKey, victim.key)
		s.curBytes -= victim.size
		s.evictions++
		s.cEvict.Add(1)
	}
	s.gauges()
}

// gauges refreshes the point-in-time registry gauges; callers hold mu.
func (s *Store) gauges() {
	s.cBytes.Set(s.curBytes)
	s.cEntries.Set(int64(s.lru.Len()))
}

// Stats returns the store's counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   s.lru.Len(),
		Bytes:     s.curBytes,
	}
}
