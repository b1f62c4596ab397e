package mc

import (
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/parser"
	"psketch/internal/state"
)

func lower(t *testing.T, src string, opts desugar.Options) (*ir.Program, *state.Layout, *desugar.Sketch) {
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
	return p, l, sk
}

func checkSrc(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	_, l, sk := lower(t, src, desugar.Options{})
	res, err := Check(l, make(desugar.Candidate, len(sk.Holes)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const racySrc = `
int counter = 0;
harness void Main() {
	fork (i; 2) {
		int t = counter;
		t = t + 1;
		counter = t;
	}
	assert counter == 2;
}
`

const atomicSrc = `
int counter = 0;
harness void Main() {
	fork (i; 2) {
		atomic { counter = counter + 1; }
	}
	assert counter == 2;
}
`

// The classic AB-BA deadlock.
const deadlockSrc = `
struct L { int v = 0; }
L a;
L b;
harness void Main() {
	a = new L();
	b = new L();
	fork (i; 2) {
		if (i == 0) { lock(a); lock(b); unlock(b); unlock(a); }
		if (i == 1) { lock(b); lock(a); unlock(a); unlock(b); }
	}
}
`

func TestFindsRace(t *testing.T) {
	res := checkSrc(t, racySrc, Options{})
	if res.OK {
		t.Fatal("missed the lost update")
	}
	if res.Trace.Failure.Kind != 0 /* FailAssert */ {
		t.Fatalf("kind %v", res.Trace.Failure.Kind)
	}
	if len(res.Trace.Events) == 0 {
		t.Fatal("empty counterexample trace")
	}
}

func TestVerifiesAtomic(t *testing.T) {
	res := checkSrc(t, atomicSrc, Options{})
	if !res.OK {
		t.Fatalf("false positive: %s", res.Trace)
	}
}

func TestFindsDeadlock(t *testing.T) {
	res := checkSrc(t, deadlockSrc, Options{})
	if res.OK {
		t.Fatal("missed the AB-BA deadlock")
	}
	if len(res.Trace.Deadlocked) != 2 {
		t.Fatalf("deadlock set: %v", res.Trace.Deadlocked)
	}
}

func TestLockOrderNoDeadlock(t *testing.T) {
	src := `
struct L { int v = 0; }
L a;
L b;
harness void Main() {
	a = new L();
	b = new L();
	fork (i; 2) {
		lock(a); lock(b); unlock(b); unlock(a);
	}
}
`
	res := checkSrc(t, src, Options{})
	if !res.OK {
		t.Fatalf("false deadlock: %s", res.Trace)
	}
}

func TestNullDeref(t *testing.T) {
	src := `
struct N { N next = null; }
N head;
harness void Main() {
	fork (i; 1) {
		N x = head.next;
		x = x;
	}
}
`
	res := checkSrc(t, src, Options{})
	if res.OK {
		t.Fatal("missed null dereference")
	}
}

func TestTerminationBound(t *testing.T) {
	src := `
int x = 0;
harness void Main() {
	fork (i; 1) {
		while (x == 0) { x = 0; }
	}
}
`
	res := checkSrc(t, src, Options{})
	if res.OK {
		t.Fatal("missed nontermination (bounded liveness, §6)")
	}
}

// The partial-order reduction (eager local steps) must not change
// verdicts: cross-check against the unreduced search.
func TestLocalFusionSound(t *testing.T) {
	for _, src := range []string{racySrc, atomicSrc, deadlockSrc} {
		_, l, sk := lower(t, src, desugar.Options{})
		cand := make(desugar.Candidate, len(sk.Holes))
		fused, err := Check(l, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		unfused, err := Check(l, cand, Options{NoLocalFusion: true})
		if err != nil {
			t.Fatal(err)
		}
		if fused.OK != unfused.OK {
			t.Fatalf("POR changed the verdict: fused=%v unfused=%v", fused.OK, unfused.OK)
		}
		if fused.States > unfused.States {
			t.Errorf("POR did not reduce states (%d vs %d)", fused.States, unfused.States)
		}
	}
}

// Verdicts must be deterministic across runs.
func TestDeterminism(t *testing.T) {
	_, l, sk := lower(t, racySrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	first, err := Check(l, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Check(l, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.OK != first.OK || again.States != first.States || len(again.Trace.Events) != len(first.Trace.Events) {
			t.Fatal("nondeterministic model checking")
		}
	}
}

func TestStateBudget(t *testing.T) {
	_, l, sk := lower(t, atomicSrc, desugar.Options{})
	if _, err := Check(l, make(desugar.Candidate, len(sk.Holes)), Options{MaxStates: 1}); err == nil {
		t.Fatal("expected state-budget error")
	}
}

func TestBlockedInPrologue(t *testing.T) {
	src := `
struct L { int v = 0; }
L a;
harness void Main() {
	a = new L();
	lock(a);
	lock(a);
	fork (i; 1) { }
}
`
	res := checkSrc(t, src, Options{})
	if res.OK || res.Trace.Phase != PhasePrologue {
		t.Fatalf("expected prologue deadlock, got %v", res.Trace)
	}
}

// Conditional atomics block until the condition holds: a producer
// thread signals a waiter through a flag.
func TestConditionalAtomicSignalling(t *testing.T) {
	src := `
int flag = 0;
int seen = 0;
harness void Main() {
	fork (i; 2) {
		if (i == 0) {
			atomic (flag == 1) { seen = 1; }
		}
		if (i == 1) {
			flag = 1;
		}
	}
	assert seen == 1;
}
`
	res := checkSrc(t, src, Options{})
	if !res.OK {
		t.Fatalf("signalling failed: %s", res.Trace)
	}
}

// A waiter with no signaller deadlocks.
func TestConditionalAtomicStuck(t *testing.T) {
	src := `
int flag = 0;
harness void Main() {
	fork (i; 1) {
		atomic (flag == 1);
	}
}
`
	res := checkSrc(t, src, Options{})
	if res.OK || res.Trace.Failure.Kind != 4 /* FailDeadlock */ {
		t.Fatalf("got %v", res.Trace)
	}
}

// Locks taken in the prologue are owned by main; a forked thread
// cannot sneak past and the epilogue can release.
func TestMainThreadLockOwnership(t *testing.T) {
	src := `
struct L { int v = 0; }
L a;
int entered = 0;
harness void Main() {
	a = new L();
	lock(a);
	fork (i; 1) {
		lock(a);
		entered = 1;
		unlock(a);
	}
	assert entered == 0;
}
`
	// The forked thread blocks on the main-held lock forever: that is a
	// deadlock at join time.
	res := checkSrc(t, src, Options{})
	if res.OK || res.Trace.Failure.Kind != 4 {
		t.Fatalf("got %v", res.Trace)
	}
}

// Atomic sections are indivisible: a two-cell invariant updated inside
// atomic blocks can never be observed torn.
func TestAtomicIndivisible(t *testing.T) {
	src := `
int a = 0;
int b = 0;
harness void Main() {
	fork (i; 2) {
		if (i == 0) {
			atomic { a = a + 1; b = b + 1; }
			atomic { a = a + 1; b = b + 1; }
		}
		if (i == 1) {
			atomic { assert a == b; }
			atomic { assert a == b; }
		}
	}
}
`
	res := checkSrc(t, src, Options{})
	if !res.OK {
		t.Fatalf("atomicity violated: %s", res.Trace)
	}
}

// The same program with non-atomic updates must be refuted.
func TestNonAtomicTorn(t *testing.T) {
	src := `
int a = 0;
int b = 0;
harness void Main() {
	fork (i; 2) {
		if (i == 0) {
			a = a + 1;
			b = b + 1;
		}
		if (i == 1) {
			atomic { assert a == b; }
		}
	}
}
`
	res := checkSrc(t, src, Options{})
	if res.OK {
		t.Fatal("missed the torn read")
	}
}

// Epilogue failures carry the whole fork-phase schedule.
func TestEpilogueTracePhase(t *testing.T) {
	res := checkSrc(t, racySrc, Options{})
	if res.OK || res.Trace.Phase != PhaseEpilogue {
		t.Fatalf("got %v", res.Trace)
	}
	if len(res.Trace.Events) == 0 {
		t.Fatal("no schedule recorded")
	}
}

// The hook observes every executed step in order.
func TestHookSeesSchedule(t *testing.T) {
	_, l, sk := lower(t, atomicSrc, desugar.Options{})
	var events int
	res, err := Check(l, make(desugar.Candidate, len(sk.Holes)), Options{
		Hook: func(ev Event, st *state.State) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || events == 0 {
		t.Fatalf("ok=%v hook events=%d", res.OK, events)
	}
}

// Every reduction setting and the parallel engine must agree on the
// verdict (and failure kind) for each outcome class: lost update,
// verified atomic counter, AB-BA deadlock.
func TestSearchConfigsAgree(t *testing.T) {
	for _, src := range []string{racySrc, atomicSrc, deadlockSrc} {
		_, l, sk := lower(t, src, desugar.Options{})
		cand := make(desugar.Candidate, len(sk.Holes))
		base, err := Check(l, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{NoPOR: true},
			{Parallelism: 4},
		} {
			res, err := Check(l, cand, o)
			if err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
			if res.OK != base.OK {
				t.Fatalf("%+v changed the verdict: got %v want %v", o, res.OK, base.OK)
			}
			if !res.OK && res.Trace.Failure.Kind != base.Trace.Failure.Kind {
				t.Fatalf("%+v changed the failure kind: got %v want %v",
					o, res.Trace.Failure.Kind, base.Trace.Failure.Kind)
			}
			if res.VisitedBytes == 0 {
				t.Fatalf("%+v reported zero visited-set bytes", o)
			}
		}
	}
}
