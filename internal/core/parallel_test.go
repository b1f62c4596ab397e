package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"psketch/internal/desugar"
)

// The parallel engine (portfolio + sharded MC) must reach the same
// verdict as the sequential one on a concurrent sketch, and its
// resolved candidate must itself verify. This is the race-detector
// exercise for the whole engine.
func TestParallelSynthesizeMatchesSequential(t *testing.T) {
	seqSyn := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 1})
	seqRes, err := seqSyn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	parSyn := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 4})
	parRes, err := parSyn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Resolved != seqRes.Resolved {
		t.Fatalf("verdicts differ: parallel=%v sequential=%v", parRes.Resolved, seqRes.Resolved)
	}
	if !parRes.Resolved {
		t.Fatal("should resolve")
	}
	// Any resolved candidate is verified over all interleavings by
	// construction; for this sketch the atomic branch is the unique
	// correct choice, so the candidates must agree too.
	if parRes.Candidate.Value(0) != seqRes.Candidate.Value(0) {
		t.Fatalf("candidates differ: parallel=%v sequential=%v", parRes.Candidate, seqRes.Candidate)
	}
	st := parRes.Stats
	if st.Parallelism != 4 {
		t.Fatalf("Stats.Parallelism = %d, want 4", st.Parallelism)
	}
	if len(st.SATWorkers) != 4 {
		t.Fatalf("Stats.SATWorkers has %d entries, want 4", len(st.SATWorkers))
	}
	var wins int64
	for _, w := range st.SATWorkers {
		wins += w.Wins
	}
	if wins < int64(st.Iterations) {
		t.Fatalf("%d portfolio wins for %d iterations", wins, st.Iterations)
	}
	if len(st.MCWorkerStates) == 0 {
		t.Fatal("no per-worker verifier stats")
	}
}

// Across refuted iterations the parallel engine must keep agreeing
// with the sequential one, and its refutations must go through the
// projection cache.
func TestParallelMultiIterationMatchesSequential(t *testing.T) {
	seq := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 1})
	seqRes, err := seq.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	par := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 4})
	parRes, err := par.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Resolved != seqRes.Resolved {
		t.Fatalf("verdicts differ: parallel=%v sequential=%v", parRes.Resolved, seqRes.Resolved)
	}
	// The unique correct choice is the atomic branch.
	if parRes.Candidate.Value(0) != seqRes.Candidate.Value(0) {
		t.Fatalf("candidates differ: parallel=%v sequential=%v", parRes.Candidate, seqRes.Candidate)
	}
	// Projections only happen on refute iterations; a lucky first
	// candidate legitimately skips the cache.
	if parRes.Stats.Iterations > 1 && parRes.Stats.ProjMisses+parRes.Stats.ProjHits == 0 {
		t.Fatal("projection cache saw no Encode calls despite refuted iterations")
	}
}

// An unresolvable sketch must still be a definitive NO in parallel
// mode (every portfolio verdict and every shard verdict is sound).
func TestParallelUnresolvable(t *testing.T) {
	syn := build(t, `
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + 1;
		g = t;
	}
	assert g == 2;
}
`, "M", desugar.Options{}, Options{Parallelism: 4})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Fatalf("racy increment cannot be resolved; got %v", res.Candidate)
	}
}

// The NO must stay definitive when the space is exhausted only after
// refuted iterations, not at the first solve.
func TestParallelUnresolvableMultiIteration(t *testing.T) {
	syn := build(t, `
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + ??(2);
		g = t;
	}
	assert g == 2;
}
`, "M", desugar.Options{}, Options{Parallelism: 4})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Fatalf("racy increment cannot be resolved; got %v", res.Candidate)
	}
}

// Clause sharing off must not change verdicts.
func TestParallelNoShareClauses(t *testing.T) {
	syn := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 4, NoShareClauses: true})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	if res.Stats.SATExported != 0 || res.Stats.SATImported != 0 {
		t.Fatalf("sharing disabled but clauses moved: %+v", res.Stats)
	}
}

// A pre-fired Cancel token must abort immediately with ErrCanceled and
// leave no goroutines behind (the -race run would flag a leaked solve).
func TestParallelCancel(t *testing.T) {
	var cancel atomic.Bool
	cancel.Store(true)
	syn := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 4, Cancel: &cancel})
	_, err := syn.Synthesize()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// Enumerate must keep working across Synthesize calls with the
// persistent projection cache and the portfolio's solver state.
func TestParallelEnumerate(t *testing.T) {
	syn := build(t, `
int g = 0;
harness void M() {
	fork (i; 1) { }
	g = ??(2);
	assert g >= 2;
}
`, "M", desugar.Options{}, Options{Parallelism: 4})
	rs, err := syn.Enumerate(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 { // 2 and 3
		t.Fatalf("got %d candidates", len(rs))
	}
}
