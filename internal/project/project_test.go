package project

import (
	"testing"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/parser"
	"psketch/internal/state"
	"psketch/internal/sym"
)

func pipeline(t testing.TB, src string, opts desugar.Options) (*desugar.Sketch, *ir.Program, *state.Layout) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "Main", opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	l, err := state.NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	return sk, p, l
}

const learnSrc = `
int counter = 0;

void Incr() {
	if ({| true | false |}) {
		int t = counter;
		t = t + 1;
		counter = t;
	} else {
		atomic { counter = counter + 1; }
	}
}

harness void Main() {
	fork (i; 2) {
		Incr();
		Incr();
	}
	assert counter == 4;
}
`

// Build preserves (i) trace order for traced steps, (ii) per-thread
// program order, and emits every step instance exactly once.
func TestBuildProperties(t *testing.T) {
	sk, p, l := pipeline(t, learnSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes)) // choice 0: racy
	res, err := mc.Check(l, cand, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("expected a counterexample")
	}
	entries := Build(p, res.Trace)

	// Exactly once per (thread, step).
	seen := map[Entry]bool{}
	total := 0
	for _, e := range entries {
		key := Entry{Thread: e.Thread, Step: e.Step}
		if seen[key] {
			t.Fatalf("duplicate entry %v", e)
		}
		seen[key] = true
		total++
	}
	want := 0
	for _, th := range p.Threads {
		want += len(th.Steps)
	}
	if total != want {
		t.Fatalf("emitted %d of %d step instances", total, want)
	}

	// Per-thread program order.
	last := map[int]int{}
	for _, e := range entries {
		if prev, ok := last[e.Thread]; ok && e.Step <= prev {
			t.Fatalf("program order violated for thread %d: %d after %d", e.Thread, e.Step, prev)
		}
		last[e.Thread] = e.Step
	}

	// Trace order preserved: the traced steps appear as a subsequence
	// in the same relative order.
	pos := map[Entry]int{}
	for i, e := range entries {
		pos[Entry{Thread: e.Thread, Step: e.Step}] = i
	}
	prev := -1
	for _, ev := range res.Trace.Events {
		p := pos[Entry{Thread: ev.Thread, Step: ev.Step}]
		if p < prev {
			t.Fatalf("trace order violated at event %v", ev)
		}
		prev = p
	}
}

// The projection must refute the candidate that produced the trace:
// fail(Skt[c_bad]) evaluates true.
func TestProjectionRefutesFailingCandidate(t *testing.T) {
	sk, p, l := pipeline(t, learnSrc, desugar.Options{})
	bad := make(desugar.Candidate, len(sk.Holes))
	res, err := mc.Check(l, bad, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("expected a counterexample")
	}
	b := circuit.NewBuilder()
	holes := sym.HoleInputs(b, sk)
	fail, err := Encode(b, l, holes, Build(p, res.Trace))
	if err != nil {
		t.Fatal(err)
	}
	assign := func(c desugar.Candidate) map[circuit.Lit]bool {
		m := map[circuit.Lit]bool{}
		for i, w := range holes {
			for j, lit := range w {
				m[lit] = (c.Value(i)>>uint(j))&1 == 1
			}
		}
		return m
	}
	if !b.Eval(assign(bad), fail) {
		t.Fatal("projection does not refute the failing candidate")
	}
	// And the atomic candidate must survive this observation.
	good := make(desugar.Candidate, len(sk.Holes))
	for i, m := range sk.Holes {
		if m.Kind == desugar.HoleChoice {
			good[i] = 1 // choice 1: "false" → atomic branch
		}
	}
	if b.Eval(assign(good), fail) {
		t.Fatal("projection wrongly eliminates the correct candidate")
	}
}

// Deadlock traces must refute the deadlocking candidate (the lock-order
// choice below can deadlock when both threads pick opposite orders).
func TestDeadlockProjectionRefutes(t *testing.T) {
	src := `
struct L { int v = 0; }
L a;
L b;

void Go(int i) {
	if ({| true | false |}) {
		lock(a); lock(b); unlock(b); unlock(a);
	} else {
		if (i == 0) { lock(a); lock(b); unlock(b); unlock(a); }
		if (i == 1) { lock(b); lock(a); unlock(a); unlock(b); }
	}
}

harness void Main() {
	a = new L();
	b = new L();
	fork (i; 2) { Go(i); }
}
`
	sk, p, l := pipeline(t, src, desugar.Options{})
	bad := make(desugar.Candidate, len(sk.Holes))
	for i, m := range sk.Holes {
		if m.Kind == desugar.HoleChoice {
			bad[i] = 1 // "false" → the AB-BA branch
		}
	}
	res, err := mc.Check(l, bad, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || len(res.Trace.Deadlocked) == 0 {
		t.Fatalf("expected deadlock, got %v", res.Trace)
	}
	b := circuit.NewBuilder()
	holes := sym.HoleInputs(b, sk)
	fail, err := Encode(b, l, holes, Build(p, res.Trace))
	if err != nil {
		t.Fatal(err)
	}
	in := map[circuit.Lit]bool{}
	for i, w := range holes {
		for j, lit := range w {
			in[lit] = (bad.Value(i)>>uint(j))&1 == 1
		}
	}
	if !b.Eval(in, fail) {
		t.Fatal("deadlock projection does not refute the deadlocking candidate")
	}
	good := make(desugar.Candidate, len(sk.Holes)) // choice 0: consistent order
	in2 := map[circuit.Lit]bool{}
	for i, w := range holes {
		for j, lit := range w {
			in2[lit] = (good.Value(i)>>uint(j))&1 == 1
		}
	}
	if b.Eval(in2, fail) {
		t.Fatal("deadlock projection wrongly eliminates the safe candidate")
	}
}
