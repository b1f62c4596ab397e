package mc

import (
	"testing"

	"psketch/internal/desugar"
)

// Two identical lock/unlock threads on one shared node: blocking steps
// on a heap cell, so the hash deltas cover lock cells and blocked
// threads.
const symPairSrc = `
struct L { int v = 0; }
L a;
harness void Main() {
	a = new L();
	fork (i; 2) {
		lock(a);
		unlock(a);
	}
	assert a.v == 0;
}
`

// debugHash recomputes the full Zobrist hash at every visited-set
// lookup and panics on any divergence from the incrementally maintained
// one — run the whole verdict space through it, sequential and
// parallel.
func TestIncrementalHashCrossCheck(t *testing.T) {
	debugHash = true
	defer func() { debugHash = false }()
	for _, src := range []string{racySrc, atomicSrc, deadlockSrc, symPairSrc} {
		_, l, sk := lower(t, src, desugar.Options{})
		cand := make(desugar.Candidate, len(sk.Holes))
		for _, o := range []Options{
			{},
			{NoPOR: true, NoLocalFusion: true},
			{Parallelism: 4},
		} {
			if _, err := Check(l, cand, o); err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
		}
	}
}
