package sym

import (
	"slices"
	"testing"
	"testing/quick"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/interp"
	"psketch/internal/ir"
	"psketch/internal/parser"
	"psketch/internal/state"
)

// crossSrc is a sequential torture program exercising arithmetic
// (including division), arrays, heap records, builtins, short-circuit
// evaluation, generator choices and holes.
const crossSrc = `
struct Node {
	Node next = null;
	int v;
}

Node head;
int[4] arr;

int F(int a, int b) {
	Node n1 = new Node(a);
	Node n2 = new Node(b);
	n1.next = n2;
	head = n1;
	int acc = a + b * 2 - ??;
	if (b != 0) { acc = acc + a / b; }
	if (b != 0) { acc = acc + a % b; }
	arr[0] = acc;
	arr[1] = {| a | b | a + b |};
	if (a < b && head.next != null) { arr[2] = head.next.v; }
	if (a == b || {| true | false |}) { arr[3] = 1; }
	int old = AtomicSwap(arr[0], 7);
	acc = acc + old + arr[0];
	bool did = CAS(arr[1], b, a);
	if (did) { acc = acc + 1; }
	acc = acc + AtomicReadAndIncr(arr[2]);
	acc = acc - AtomicReadAndDecr(arr[3]);
	Node p = head;
	while (p != null) {
		acc = acc + p.v;
		p = p.next;
	}
	return acc;
}
`

func buildCross(t testing.TB) (*ir.Program, *state.Layout, *desugar.Sketch) {
	t.Helper()
	prog, err := parser.Parse(crossSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "F", desugar.Options{IntWidth: 6, LoopBound: 3})
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

// runConcrete executes the program with the interpreter.
func runConcrete(p *ir.Program, l *state.Layout, cand desugar.Candidate, a, b int32) (result int32, fail bool) {
	st := l.NewState()
	seq := p.Prologue
	ctx := interp.NewCtx(l, st, seq, cand)
	st.Cells[l.LocalOff(seq, seq.Local("a"))] = a
	st.Cells[l.LocalOff(seq, seq.Local("b"))] = b
	for _, sq := range []*ir.Seq{p.GlobalInit, seq} {
		c2 := interp.NewCtx(l, st, sq, cand)
		for _, step := range sq.Steps {
			ok, f := c2.EvalGuards(step)
			if f != nil {
				return 0, true
			}
			if !ok {
				continue
			}
			en, f := c2.EvalCond(step)
			if f != nil || !en {
				return 0, true
			}
			if f := c2.ExecBody(step); f != nil {
				return 0, true
			}
		}
	}
	_ = ctx
	ri := seq.Local(p.ResultVar)
	return st.Cells[l.LocalOff(seq, ri)], false
}

// runSymbolic executes the program with the symbolic evaluator using
// constant holes and inputs, then folds the circuits to constants.
func runSymbolic(t testing.TB, p *ir.Program, l *state.Layout, sk *desugar.Sketch, cand desugar.Candidate, a, b int32) (result int32, fail bool) {
	bld := circuit.NewBuilder()
	holes := HoleConsts(sk, cand)
	e := New(bld, l, holes)
	seq := p.Prologue
	if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(p.W, int64(a))}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVarCells(seq, "b", []circuit.Word{circuit.ConstW(p.W, int64(b))}); err != nil {
		t.Fatal(err)
	}
	e.RunSeq(p.GlobalInit, circuit.True)
	e.RunSeq(seq, circuit.True)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if ok, v := e.Fail.IsConst(); !ok {
		t.Fatal("fail literal not constant under constant inputs")
	} else if v {
		return 0, true
	}
	out, err := e.ReadVar(seq, p.ResultVar)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := circuit.ConstVal(out[0])
	if !ok {
		t.Fatal("result not constant under constant inputs")
	}
	return int32(v), false
}

// The central soundness property: on every input and candidate, the
// symbolic evaluator computes exactly what the concrete interpreter
// does — same failure verdict, same result.
func TestSymMatchesInterp(t *testing.T) {
	p, l, sk := buildCross(t)
	f := func(a, b int8, h1, h2, h3 uint8) bool {
		av := int32(a) % 32
		bv := int32(b) % 32
		cand := make(desugar.Candidate, len(sk.Holes))
		vals := []uint8{h1, h2, h3}
		for i, m := range sk.Holes {
			v := int64(vals[i%3])
			if m.Kind == desugar.HoleChoice {
				v %= int64(m.Choices)
			} else {
				v &= (1 << uint(m.Bits)) - 1
			}
			cand[i] = v
		}
		cr, cf := runConcrete(p, l, cand, av, bv)
		sr, sf := runSymbolic(t, p, l, sk, cand, av, bv)
		if cf != sf {
			t.Logf("a=%d b=%d cand=%v: concrete fail=%v symbolic fail=%v", av, bv, cand, cf, sf)
			return false
		}
		if !cf && cr != sr {
			t.Logf("a=%d b=%d cand=%v: concrete=%d symbolic=%d", av, bv, cand, cr, sr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// With symbolic holes, evaluating the projection-style failure literal
// under a concrete assignment must agree with the concrete run too.
func TestSymbolicHolesAgree(t *testing.T) {
	p, l, sk := buildCross(t)
	bld := circuit.NewBuilder()
	holes := HoleInputs(bld, sk)
	e := New(bld, l, holes)
	seq := p.Prologue
	if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(p.W, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVarCells(seq, "b", []circuit.Word{circuit.ConstW(p.W, 5)}); err != nil {
		t.Fatal(err)
	}
	e.RunSeq(p.GlobalInit, circuit.True)
	e.RunSeq(seq, circuit.True)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	for h1 := int64(0); h1 < 4; h1++ {
		cand := make(desugar.Candidate, len(sk.Holes))
		for i, m := range sk.Holes {
			v := h1
			if m.Kind == desugar.HoleChoice {
				v %= int64(m.Choices)
			} else {
				v &= (1 << uint(m.Bits)) - 1
			}
			cand[i] = v
		}
		in := map[circuit.Lit]bool{}
		for i, w := range holes {
			for j, lit := range w {
				in[lit] = (cand.Value(i)>>uint(j))&1 == 1
			}
		}
		symFail := bld.Eval(in, e.Fail)
		_, concFail := runConcrete(p, l, cand, 3, 5)
		if symFail != concFail {
			t.Fatalf("cand %v: symbolic fail=%v concrete fail=%v", cand, symFail, concFail)
		}
	}
}

// SetVarCells/ReadVar input validation.
func TestVarAccessErrors(t *testing.T) {
	p, l, sk := buildCross(t)
	b := circuit.NewBuilder()
	e := New(b, l, HoleConsts(sk, make(desugar.Candidate, len(sk.Holes))))
	if err := e.SetVarCells(p.Prologue, "nosuch", nil); err == nil {
		t.Fatal("expected unknown-variable error")
	}
	if err := e.SetVarCells(p.Prologue, "a", []circuit.Word{circuit.ConstW(6, 1), circuit.ConstW(6, 2)}); err == nil {
		t.Fatal("expected cell-count error")
	}
	if _, err := e.ReadVar(p.Prologue, "nosuch"); err == nil {
		t.Fatal("expected unknown-variable error")
	}
}

// Division by zero must be a guarded failure, not a bogus value: a
// candidate that divides by zero on the given input fails.
func TestSymbolicDivByZero(t *testing.T) {
	p, l, sk := buildCross(t)
	_ = p
	b := circuit.NewBuilder()
	e := New(b, l, HoleConsts(sk, make(desugar.Candidate, len(sk.Holes))))
	seq := l.Prog.Prologue
	if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(6, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVarCells(seq, "b", []circuit.Word{circuit.ConstW(6, 0)}); err != nil {
		t.Fatal(err)
	}
	e.RunSeq(l.Prog.GlobalInit, circuit.True)
	e.RunSeq(seq, circuit.True)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	// The cross program guards its divisions with b != 0, so no
	// failure is expected here...
	if ok, v := e.Fail.IsConst(); !ok || v {
		t.Fatalf("guarded division flagged a failure: %v", e.Fail)
	}
}

// The write log must capture every cell a step changes: replaying the
// logged words step by step onto the starting state rebuilds the final
// cells exactly, and no take reports a cell twice.
func TestWriteLogReplays(t *testing.T) {
	p, l, sk := buildCross(t)
	bld := circuit.NewBuilder()
	e := New(bld, l, HoleInputs(bld, sk))
	e.LogWrites()
	start := e.Snapshot()
	seq := p.Prologue
	type write struct {
		off int
		w   circuit.Word
	}
	var steps [][]write
	take := func() {
		var ws []write
		seen := map[int]bool{}
		e.TakeWrites(func(off int, w circuit.Word) {
			if seen[off] {
				t.Fatalf("cell %d reported twice in one take", off)
			}
			seen[off] = true
			ws = append(ws, write{off, w})
		})
		steps = append(steps, ws)
	}
	for _, in := range []string{"a", "b"} {
		if err := e.SetVarCells(seq, in, []circuit.Word{bld.InputW(p.W)}); err != nil {
			t.Fatal(err)
		}
	}
	take()
	for _, sq := range []*ir.Seq{p.GlobalInit, seq} {
		for _, step := range sq.Steps {
			e.RunStep(sq, step, circuit.True, FailWhenBlocked)
			take()
		}
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	final := e.Snapshot()
	e.Restore(start)
	for _, ws := range steps {
		for _, w := range ws {
			e.SetCell(w.off, w.w)
		}
	}
	if len(steps[0]) != 2 {
		t.Fatalf("binding two inputs logged %d writes, want 2", len(steps[0]))
	}
	for off := range final.cells {
		if !slices.Equal(e.cells[off], final.cells[off]) {
			t.Fatalf("cell %d: replayed %v, want %v", off, e.cells[off], final.cells[off])
		}
	}
}
