package project

import (
	"fmt"
	"sync"
	"testing"

	"psketch/internal/circuit"
	"psketch/internal/obs"
)

// fakeState fabricates a WarmState whose SizeBytes is dominated by the
// given trie-byte count (plus the empty builder's fixed overhead), so
// eviction tests can dial sizes precisely.
func fakeState(trieBytes int64) *WarmState {
	return &WarmState{Cache: &Cache{b: circuit.NewBuilder(), trieBytes: trieBytes}}
}

func TestStoreAcquireIsExclusive(t *testing.T) {
	s := NewStore(0, nil)
	if got := s.Acquire("k"); got != nil {
		t.Fatalf("Acquire on empty store = %v, want nil", got)
	}
	w := fakeState(100)
	s.Release("k", w)
	got := s.Acquire("k")
	if got != w {
		t.Fatalf("Acquire = %p, want the released context %p", got, w)
	}
	// Checked out: a concurrent Acquire of the same key must miss.
	if again := s.Acquire("k"); again != nil {
		t.Fatalf("second Acquire = %v, want nil (context is checked out)", again)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 0 entries", st)
	}
}

func TestStoreEvictsLRUUnderByteBound(t *testing.T) {
	m := obs.NewMetrics()
	unit := fakeState(0).SizeBytes() // empty-builder overhead per entry
	// Room for two entries of trieBytes 256 each, not three.
	s := NewStore(2*(unit+256)+1, m)
	s.Release("a", fakeState(256))
	s.Release("b", fakeState(256))
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("stats after two releases = %+v, want 0 evictions, 2 entries", st)
	}
	// "a" is least recently used; releasing "c" must evict it.
	s.Release("c", fakeState(256))
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after third release = %+v, want 1 eviction, 2 entries", st)
	}
	if got := s.Acquire("a"); got != nil {
		t.Fatalf("evicted key still acquirable: %v", got)
	}
	if got := s.Acquire("b"); got == nil {
		t.Fatal("survivor b missing")
	}
	if got := s.Acquire("c"); got == nil {
		t.Fatal("survivor c missing")
	}
	snap := m.Snapshot()
	if snap["warm.evictions"] != 1 {
		t.Fatalf("warm.evictions = %d, want 1", snap["warm.evictions"])
	}
	if snap["warm.entries"] != 0 || snap["warm.bytes"] != 0 {
		t.Fatalf("gauges after draining = entries %d bytes %d, want 0/0",
			snap["warm.entries"], snap["warm.bytes"])
	}
}

// A single oversized context must not wedge the store: it is admitted
// (Release always stores the newest context first) and then immediately
// evicted by the bound.
func TestStoreOversizedEntryEvictsItself(t *testing.T) {
	s := NewStore(10, nil)
	s.Release("big", fakeState(1<<20))
	st := s.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the oversized entry evicted", st)
	}
}

// Releasing a second context under an idle key replaces the first (the
// last Release wins; bytes must not double-count).
func TestStoreReleaseReplacesIdleEntry(t *testing.T) {
	s := NewStore(0, nil)
	s.Release("k", fakeState(100))
	w2 := fakeState(200)
	s.Release("k", w2)
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if want := w2.SizeBytes(); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d (the replacement's size only)", st.Bytes, want)
	}
	if got := s.Acquire("k"); got != w2 {
		t.Fatalf("Acquire = %p, want the replacement %p", got, w2)
	}
}

func TestStoreNilIsInert(t *testing.T) {
	var s *Store
	if got := s.Acquire("k"); got != nil {
		t.Fatalf("nil store Acquire = %v", got)
	}
	s.Release("k", fakeState(1)) // must not panic
	if st := s.Stats(); st != (StoreStats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

// Hammer the store from many goroutines (run under -race): concurrent
// Acquire/Release of overlapping keys must stay consistent, and no
// context may ever be handed to two holders at once. Each holder
// mutates its context's cache without synchronization — if the store
// ever double-issued a context, the race detector fires on that write.
func TestStoreConcurrentCheckoutDiscipline(t *testing.T) {
	s := NewStore(1<<20, obs.NewMetrics())
	const keys = 4
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%keys)
				w := s.Acquire(key)
				if w == nil {
					w = fakeState(int64(i % 512))
				}
				w.Cache.trieBytes++ // exclusive by the checkout contract
				s.Release(key, w)
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits %d + misses %d != 1600 acquires", st.Hits, st.Misses)
	}
	if st.Entries > keys {
		t.Fatalf("entries = %d, want <= %d", st.Entries, keys)
	}
}
