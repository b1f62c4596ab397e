package core

import (
	"strings"
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/parser"
)

func build(t *testing.T, src, target string, dopts desugar.Options, copts Options) *Synthesizer {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, target, dopts)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := New(sk, copts)
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

// Sequential CEGIS (§5): learn a constant from counterexample inputs.
func TestSequentialCEGIS(t *testing.T) {
	syn := build(t, `
int spec(int x) { return 3 * x + 5; }
int f(int x) implements spec { return ??(2) * x + ??(3); }
`, "f", desugar.Options{IntWidth: 6}, Options{})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	if res.Candidate.Value(0) != 3 || res.Candidate.Value(1) != 5 {
		t.Fatalf("candidate %v", res.Candidate)
	}
	if res.Stats.Iterations < 1 {
		t.Fatal("stats missing")
	}
}

// Sequential UNSAT: no constant matches.
func TestSequentialUnresolvable(t *testing.T) {
	syn := build(t, `
int spec(int x) { return x * x; }
int f(int x) implements spec { return x + ??(2); }
`, "f", desugar.Options{IntWidth: 5}, Options{})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Fatalf("x+c cannot implement x²; got %v", res.Candidate)
	}
}

// Sequential mode with asserts and no spec: the holes must satisfy the
// asserts on all inputs.
func TestSequentialAssertOnly(t *testing.T) {
	syn := build(t, `
int f(int x) {
	int y = x + ??(2);
	assert y != x;
	return y;
}
`, "f", desugar.Options{IntWidth: 5}, Options{})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || res.Candidate.Value(0) == 0 {
		t.Fatalf("resolved=%v cand=%v (c=0 would violate y != x)", res.Resolved, res.Candidate)
	}
}

// Bit-array inputs exercise the array-input path of verification.
func TestSequentialArrayInput(t *testing.T) {
	syn := build(t, `
int spec(int[3] xs) { return xs[0] + xs[1] + xs[2]; }
int f(int[3] xs) implements spec {
	return xs[??(2)] + xs[??(2)] + xs[??(2)];
}
`, "f", desugar.Options{IntWidth: 6}, Options{})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	got := map[int64]bool{
		res.Candidate.Value(0): true,
		res.Candidate.Value(1): true,
		res.Candidate.Value(2): true,
	}
	if len(got) != 3 {
		t.Fatalf("indices must be a permutation of 0..2: %v", res.Candidate)
	}
}

// Concurrent CEGIS statistics should populate the Figure 9 columns.
// Iterations >= 2 is the sequential engine's trajectory (the racing
// portfolio may hit the right candidate first), so pin Parallelism 1.
func TestConcurrentStats(t *testing.T) {
	syn := build(t, `
int g = 0;
harness void M() {
	fork (i; 2) {
		if ({| true | false |}) {
			int t = g;
			t = t + 1;
			g = t;
		} else {
			atomic { g = g + 1; }
		}
	}
	assert g == 2;
}
`, "M", desugar.Options{}, Options{Parallelism: 1})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	st := res.Stats
	if st.Iterations < 2 || st.MCStates == 0 || st.SATVars == 0 || st.Total <= 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
}

// MaxIterations must abort a loop rather than hang.
func TestMaxIterations(t *testing.T) {
	// A sketch with no solution but a large-ish space to iterate.
	syn := build(t, `
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + ??(3);
		g = t;
	}
	assert g == 2;
}
`, "M", desugar.Options{}, Options{MaxIterations: 3})
	_, err := syn.Synthesize()
	if err == nil {
		// UNSAT in under 3 iterations is also acceptable.
		return
	}
	if !strings.Contains(err.Error(), "convergence") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestEnumerateCore(t *testing.T) {
	syn := build(t, `
int g = 0;
harness void M() {
	fork (i; 1) { }
	g = ??(2);
	assert g >= 2;
}
`, "M", desugar.Options{}, Options{})
	rs, err := syn.Enumerate(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 { // 2 and 3
		t.Fatalf("got %d candidates", len(rs))
	}
}

// Regression: defaults() must apply the documented MCMaxStates and
// TracesPerIteration defaults (they were previously left at zero and
// only patched downstream by mc.Check).
func TestOptionsDefaults(t *testing.T) {
	o := (Options{}).defaults()
	if o.MCMaxStates != 4_000_000 {
		t.Fatalf("MCMaxStates default: got %d, want 4000000", o.MCMaxStates)
	}
	if o.TracesPerIteration != 1 {
		t.Fatalf("TracesPerIteration default: got %d, want 1", o.TracesPerIteration)
	}
	if o.MaxIterations != 256 {
		t.Fatalf("MaxIterations default: got %d, want 256", o.MaxIterations)
	}
	if o.Parallelism < 1 {
		t.Fatalf("Parallelism default: got %d, want >= 1", o.Parallelism)
	}
	// Explicit settings must survive.
	o = (Options{MCMaxStates: 7, TracesPerIteration: 2, Parallelism: 3}).defaults()
	if o.MCMaxStates != 7 || o.TracesPerIteration != 2 || o.Parallelism != 3 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

const raceySketch = `
int g = 0;
harness void M() {
	fork (i; 2) {
		if ({| true | false |}) {
			int t = g;
			t = t + 1;
			g = t;
		} else {
			atomic { g = g + 1; }
		}
	}
	assert g == 2;
}
`

// The parallel engine (portfolio + sharded MC) must reach the same
// verdict as the sequential one on a concurrent sketch, and its
// resolved candidate must itself verify. This is the race-detector
// exercise for the whole pipeline.
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

// Parallelism 1 must be deterministic run to run: same candidate, same
// iteration count, same conflict totals.
func TestSequentialModeDeterminism(t *testing.T) {
	run := func() *Result {
		syn := build(t, raceySketch, "M", desugar.Options{}, Options{Parallelism: 1})
		res, err := syn.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	for i := 0; i < 2; i++ {
		again := run()
		if again.Resolved != first.Resolved ||
			again.Stats.Iterations != first.Stats.Iterations ||
			again.Stats.SATConfl != first.Stats.SATConfl ||
			again.Stats.MCStates != first.Stats.MCStates {
			t.Fatalf("sequential mode nondeterministic:\nfirst %+v\nagain %+v", first.Stats, again.Stats)
		}
	}
}
