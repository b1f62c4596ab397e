package project

import (
	"testing"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/sketches"
	"psketch/internal/state"
	"psketch/internal/sym"
)

// table1 lowers one Figure 9 test of a Table 1 sketch.
func table1(tb testing.TB, b *sketches.Benchmark, test string) (*desugar.Sketch, *ir.Program, *state.Layout) {
	tb.Helper()
	src, err := b.Source(test)
	if err != nil {
		tb.Fatal(err)
	}
	return pipeline(tb, src, b.Opts(test))
}

// projections model-checks each candidate (sequential search, up to
// four traces each) and returns the projected entries of every trace.
func projections(tb testing.TB, p *ir.Program, l *state.Layout, cands ...desugar.Candidate) [][]Entry {
	tb.Helper()
	var out [][]Entry
	for _, cand := range cands {
		res, err := mc.Check(l, cand, mc.Options{MaxTraces: 4, Parallelism: 1})
		if err != nil {
			tb.Fatal(err)
		}
		for _, tr := range res.Traces {
			out = append(out, Build(p, tr))
		}
	}
	if len(out) == 0 {
		tb.Fatal("no counterexample traces")
	}
	return out
}

// On one shared builder, the cache must return exactly the literal the
// uncached Encode builds, whatever order the traces come in: a restored
// prefix holds the very words a re-execution rebuilds. A second pass in
// the reverse order restores every trace from the trie and must not add
// a single builder node.
func TestCacheLitIdentity(t *testing.T) {
	sk, p, l := table1(t, sketches.FineSet1(), "ar(ar|ar)")
	// Wrong completions of the hand-over-hand locking set: assertion
	// failures and lock-cycle deadlocks.
	traces := projections(t, p, l,
		desugar.Candidate{0, 0, 0, 0, 0, 0},
		desugar.Candidate{2, 2, 0, 1, 3, 4},
		desugar.Candidate{3, 1, 0, 1, 3, 4},
		desugar.Candidate{3, 2, 0, 0, 3, 4},
		desugar.Candidate{3, 2, 0, 1, 3, 0},
	)
	b := circuit.NewBuilder()
	holes := sym.HoleInputs(b, sk)
	cache := NewCache(b, l, holes)

	want := make([]circuit.Lit, len(traces))
	for i, entries := range traces {
		got, err := cache.Encode(entries)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = Encode(b, l, holes, entries); err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("trace %d: Cache.Encode = %v, Encode = %v", i, got, want[i])
		}
	}
	if cache.Hits == 0 {
		t.Fatalf("first pass over %d traces restored no prefix", len(traces))
	}

	nodes := b.NumNodes()
	hits, saved := cache.Hits, cache.SavedEntries
	for i := len(traces) - 1; i >= 0; i-- {
		got, err := cache.Encode(traces[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("second pass, trace %d: Cache.Encode = %v, want %v", i, got, want[i])
		}
	}
	if added := b.NumNodes() - nodes; added != 0 {
		t.Fatalf("second pass added %d builder nodes, want 0", added)
	}
	if cache.Hits-hits != int64(len(traces)) {
		t.Fatalf("second pass hit %d of %d traces", cache.Hits-hits, len(traces))
	}
	total := 0
	for _, entries := range traces {
		total += len(entries)
	}
	if cache.SavedEntries-saved != int64(total) {
		t.Fatalf("second pass restored %d of %d entries", cache.SavedEntries-saved, total)
	}
}

// Traces longer than 4,096 entries, each encoded twice, must be
// restored in full on their second call, also with the other traces
// encoded in between: the trie is never dropped partway through a trace.
// Past its byte bound it is dropped before the next call instead.
func TestCacheRestoresLongTrace(t *testing.T) {
	sk, p, l := table1(t, sketches.FineSet2(), "ar(arar|arar)")
	traces := projections(t, p, l, make(desugar.Candidate, len(sk.Holes)))
	if len(traces) < 2 {
		t.Fatalf("got %d traces, want at least 2", len(traces))
	}
	b := circuit.NewBuilder()
	cache := NewCache(b, l, sym.HoleInputs(b, sk))
	lits := make([]circuit.Lit, len(traces))
	for i, entries := range traces {
		if len(entries) <= 4096 {
			t.Fatalf("trace %d has %d entries, want more than 4096", i, len(entries))
		}
		var err error
		if lits[i], err = cache.Encode(entries); err != nil {
			t.Fatal(err)
		}
	}
	nodes := b.NumNodes()
	for i, entries := range traces {
		saved := cache.SavedEntries
		lit, err := cache.Encode(entries)
		if err != nil {
			t.Fatal(err)
		}
		if lit != lits[i] {
			t.Fatalf("trace %d: re-encode changed the fail literal: %v vs %v", i, lit, lits[i])
		}
		if got := cache.SavedEntries - saved; got != int64(len(entries)) {
			t.Fatalf("trace %d: second call restored %d of %d entries", i, got, len(entries))
		}
	}
	if b.NumNodes() != nodes {
		t.Fatalf("full restores added %d builder nodes", b.NumNodes()-nodes)
	}

	entries := traces[0]
	misses, saved := cache.Misses, cache.SavedEntries
	cache.trieBytes = trieMaxBytes + 1
	lit, err := cache.Encode(entries)
	if err != nil {
		t.Fatal(err)
	}
	if lit != lits[0] || cache.Misses != misses+1 || cache.SavedEntries != saved {
		t.Fatalf("over the bound: lit %v (want %v), %d new misses (want 1), %d entries restored (want 0)",
			lit, lits[0], cache.Misses-misses, cache.SavedEntries-saved)
	}
	if cache.trieBytes > trieMaxBytes {
		t.Fatalf("trie kept %d bytes after a reset, bound %d", cache.trieBytes, trieMaxBytes)
	}
}

// BenchmarkCacheEncode encodes a long fine-grained-lock trace (fineset2
// ar(arar|arar), over 4,000 entries): "cold" on a fresh builder and
// cache, "warm" restoring the whole trace from the trie.
func BenchmarkCacheEncode(b *testing.B) {
	sk, p, l := table1(b, sketches.FineSet2(), "ar(arar|arar)")
	entries := projections(b, p, l, make(desugar.Candidate, len(sk.Holes)))[0]
	encode := func(b *testing.B, cache *Cache) {
		if _, err := cache.Encode(entries); err != nil {
			b.Fatal(err)
		}
	}
	newCache := func() *Cache {
		cb := circuit.NewBuilder()
		return NewCache(cb, l, sym.HoleInputs(cb, sk))
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encode(b, newCache())
		}
		b.ReportMetric(float64(len(entries)), "entries/op")
	})
	b.Run("warm", func(b *testing.B) {
		cache := newCache()
		encode(b, cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode(b, cache)
		}
		b.ReportMetric(float64(len(entries)), "entries/op")
	})
}
