// Package sym symbolically evaluates lowered programs over AIG words:
// every state cell holds a bit-vector circuit over the hole inputs (and
// over symbolic program inputs in sequential mode). Running a projected
// counterexample trace yields fail(Skt[c]) as one literal — the
// inductive constraint of §6 — and running a sequential sketch against
// its spec yields the equivalence condition of §5.
package sym

import (
	"fmt"
	"slices"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/state"
	"psketch/internal/types"
)

// cellInfo describes the bit width and signedness of one state cell.
type cellInfo struct {
	width  int
	signed bool
}

// Evaluator holds the symbolic machine state.
type Evaluator struct {
	B *circuit.Builder
	P *ir.Program
	L *state.Layout
	W int

	cells []circuit.Word
	info  []cellInfo

	// Holes maps hole IDs to their input words (synthesis mode) or
	// constant words (verification mode).
	Holes []circuit.Word

	// Fail accumulates the failure condition.
	Fail circuit.Lit

	// err records a structural problem (not a program failure).
	err error

	// written lists, in first-write order, the cells changed since the
	// last TakeWrites or Restore; wmark flags them. Both stay nil until
	// LogWrites turns the log on.
	written []int32
	wmark   []bool
}

// New builds an evaluator with zeroed cells. holes[i] must have exactly
// Sketch.Holes[i].Bits bits.
func New(b *circuit.Builder, l *state.Layout, holes []circuit.Word) *Evaluator {
	e := &Evaluator{B: b, P: l.Prog, L: l, W: l.Prog.W, Holes: holes, Fail: circuit.False}
	e.buildInfo()
	e.cells = make([]circuit.Word, l.Size)
	for i := range e.cells {
		e.cells[i] = circuit.ConstW(e.info[i].width, 0)
	}
	return e
}

// HoleInputs allocates fresh input words for every hole of the sketch.
func HoleInputs(b *circuit.Builder, sk *desugar.Sketch) []circuit.Word {
	hs := make([]circuit.Word, len(sk.Holes))
	for i, m := range sk.Holes {
		hs[i] = b.InputW(m.Bits)
	}
	return hs
}

// HoleConsts encodes a concrete candidate as constant words.
func HoleConsts(sk *desugar.Sketch, cand desugar.Candidate) []circuit.Word {
	hs := make([]circuit.Word, len(sk.Holes))
	for i, m := range sk.Holes {
		hs[i] = circuit.ConstW(m.Bits, cand.Value(i))
	}
	return hs
}

// Err returns the structural error encountered, if any.
func (e *Evaluator) Err() error { return e.err }

// Snapshot is a saved copy of the symbolic machine state (cells, Fail,
// structural error). Words are immutable once stored in a cell — writes
// replace whole slices via MuxW — so a shallow copy of the cell array
// captures the state exactly.
type Snapshot struct {
	cells []circuit.Word
	fail  circuit.Lit
	err   error
}

// Snapshot captures the current machine state.
func (e *Evaluator) Snapshot() Snapshot {
	return Snapshot{
		cells: append([]circuit.Word(nil), e.cells...),
		fail:  e.Fail,
		err:   e.err,
	}
}

// Restore rewinds the machine to a snapshot taken on an evaluator with
// the same layout and clears the write log. Because the builder is
// hash-consed, re-running the same steps from a restored state rebuilds
// bit-identical literals.
func (e *Evaluator) Restore(s Snapshot) {
	copy(e.cells, s.cells)
	e.Fail = s.fail
	e.err = s.err
	e.clearLog()
}

// LogWrites turns on the write log: from now on every cell write that
// changes a cell's word is recorded for TakeWrites.
func (e *Evaluator) LogWrites() {
	if e.wmark == nil {
		e.wmark = make([]bool, len(e.cells))
	}
}

// TakeWrites calls f with the offset and current word of every cell
// changed since the previous TakeWrites or Restore, once per cell in
// first-write order, and clears the log. Replaying the pairs with
// SetCell onto the state the log started from reproduces the current
// cells exactly.
func (e *Evaluator) TakeWrites(f func(off int, w circuit.Word)) {
	for _, off := range e.written {
		f(int(off), e.cells[off])
	}
	e.clearLog()
}

// SetCell overwrites one cell without logging the write. w must have
// the cell's width and must not be mutated afterwards.
func (e *Evaluator) SetCell(off int, w circuit.Word) { e.cells[off] = w }

func (e *Evaluator) clearLog() {
	for _, off := range e.written {
		e.wmark[off] = false
	}
	e.written = e.written[:0]
}

// setCell stores w in a cell, logging the write when the log is on and
// the word changes. writeLoc and SetVarCells, the only cell writers,
// both go through here, so the log sees every change.
func (e *Evaluator) setCell(off int, w circuit.Word) {
	if e.wmark != nil && !e.wmark[off] && !slices.Equal(w, e.cells[off]) {
		e.wmark[off] = true
		e.written = append(e.written, int32(off))
	}
	e.cells[off] = w
}

func (e *Evaluator) fail(g circuit.Lit, cond circuit.Lit) {
	e.Fail = e.B.Or(e.Fail, e.B.And(g, cond))
}

func (e *Evaluator) errorf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// buildInfo computes the width/signedness of every layout cell.
func (e *Evaluator) buildInfo() {
	e.info = make([]cellInfo, e.L.Size)
	fill := func(off int, t types.Type) {
		n := 1
		if t.IsArray() {
			n = t.Len
		}
		ci := e.cellType(t)
		for i := 0; i < n; i++ {
			e.info[off+i] = ci
		}
	}
	for i, g := range e.P.Globals {
		fill(e.L.GlobalOff(i), g.Type)
	}
	for _, sd := range e.P.Sketch.Prog.Structs {
		si := e.P.Sketch.Info.Structs[sd.Name]
		arena := e.P.Arenas[sd.Name]
		for slot := 1; slot <= arena; slot++ {
			for _, f := range si.Fields {
				off, err := e.L.FieldOff(sd.Name, f.Name, int32(slot))
				if err != nil {
					e.errorf("sym: %v", err)
					return
				}
				e.info[off] = e.cellType(f.Type)
			}
		}
	}
	for _, seq := range e.allSeqs() {
		for i, v := range seq.Locals {
			fill(e.L.LocalOff(seq, i), v.Type)
		}
	}
}

func (e *Evaluator) allSeqs() []*ir.Seq {
	p := e.P
	out := []*ir.Seq{}
	for _, s := range []*ir.Seq{p.GlobalInit, p.Prologue} {
		if s != nil {
			out = append(out, s)
		}
	}
	out = append(out, p.Threads...)
	for _, s := range []*ir.Seq{p.Epilogue, p.Spec} {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (e *Evaluator) cellType(t types.Type) cellInfo {
	switch t.Base {
	case types.Bool:
		return cellInfo{width: 1}
	case types.Ref:
		return cellInfo{width: refWidth(e.P.Arenas[t.Struct])}
	default:
		return cellInfo{width: e.W, signed: true}
	}
}

func refWidth(arena int) int {
	b := 1
	for (1 << b) < arena+1 {
		b++
	}
	return b
}

// SetVarCells overwrites a local variable with symbolic words, one per
// cell (used to bind sequential inputs; scalars pass one word).
func (e *Evaluator) SetVarCells(seq *ir.Seq, name string, ws []circuit.Word) error {
	i := seq.Local(name)
	if i < 0 {
		return fmt.Errorf("sym: no local %s in %s", name, seq.Name)
	}
	off := e.L.LocalOff(seq, i)
	n := cells(seq.Locals[i].Type)
	if len(ws) != n {
		return fmt.Errorf("sym: %s has %d cells, got %d words", name, n, len(ws))
	}
	for j, w := range ws {
		e.setCell(off+j, e.coerce(w, e.info[off+j]))
	}
	return nil
}

// ReadVar returns the cells of a local variable.
func (e *Evaluator) ReadVar(seq *ir.Seq, name string) ([]circuit.Word, error) {
	i := seq.Local(name)
	if i < 0 {
		return nil, fmt.Errorf("sym: no local %s in %s", name, seq.Name)
	}
	off := e.L.LocalOff(seq, i)
	n := 1
	if t := seq.Locals[i].Type; t.IsArray() {
		n = t.Len
	}
	out := make([]circuit.Word, n)
	for j := 0; j < n; j++ {
		out[j] = e.cells[off+j]
	}
	return out, nil
}

// coerce adjusts a word to a cell's width (sign- or zero-extending).
func (e *Evaluator) coerce(w circuit.Word, ci cellInfo) circuit.Word {
	if ci.signed {
		return circuit.SextW(w, ci.width)
	}
	return circuit.ZextW(w, ci.width)
}

// val is a symbolic scalar: a word plus signedness.
type val struct {
	w      circuit.Word
	signed bool
}

func (e *Evaluator) boolVal(l circuit.Lit) val { return val{w: circuit.Word{l}} }

func (v val) bit(b *circuit.Builder) circuit.Lit {
	any := circuit.False
	for _, l := range v.w {
		any = b.Or(any, l)
	}
	return any
}

// align extends two values to a common width for comparison/arithmetic.
func (e *Evaluator) align(x, y val) (circuit.Word, circuit.Word, bool) {
	w := len(x.w)
	if len(y.w) > w {
		w = len(y.w)
	}
	signed := x.signed && y.signed
	ext := func(v val) circuit.Word {
		if v.signed {
			return circuit.SextW(v.w, w)
		}
		return circuit.ZextW(v.w, w)
	}
	return ext(x), ext(y), signed
}

// intVal truncates/extends to the machine int width.
func (e *Evaluator) intVal(v val) circuit.Word {
	if v.signed {
		return circuit.SextW(v.w, e.W)
	}
	return circuit.ZextW(v.w, e.W)
}
