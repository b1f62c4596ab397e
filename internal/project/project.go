// Package project implements the trace-projection step of the
// concurrent CEGIS algorithm (§6): a counterexample trace produced on
// one candidate is turned into an observation valid for the whole
// candidate space.
//
// Because the sketch is in if-converted linear-step form, every
// candidate executes a subset of the same statement instances. The
// projection orders all statement instances of all threads so that
//
//	(i)   steps common with the trace keep the trace's order,
//	(ii)  per-thread program order is preserved, and
//	(iii) deadlock-set steps come after every step outside the set,
//
// and rewrites conditional atomics into the paper's
// "if (cond) body; else if (another thread can progress) OK; else
// deadlock" form. Mid-trace blocked steps abort the projection (the
// longest-preserving-prefix semantics); a trace that ended in deadlock
// contributes the constraint "all deadlocked threads are simultaneously
// stuck", with each stuck thread's remaining steps suppressed.
package project

import (
	"fmt"

	"psketch/internal/circuit"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/state"
	"psketch/internal/sym"
)

// Entry is one statement instance of the projected trace program.
type Entry struct {
	Thread int // forked thread index
	Step   int // step index within that thread
	// Deadlock marks a step at which a thread was blocked when the
	// model checker declared deadlock.
	Deadlock bool
}

// Build computes the projected order of all thread-step instances for a
// counterexample trace.
func Build(p *ir.Program, tr *mc.Trace) []Entry {
	n := p.NumThreads()
	pos := make([]int, n)
	var out []Entry
	emitUpTo := func(t, step int) {
		for pos[t] <= step && pos[t] < len(p.Threads[t].Steps) {
			out = append(out, Entry{Thread: t, Step: pos[t]})
			pos[t]++
		}
	}
	// (i)+(ii): traced steps in trace order; untraced earlier steps of
	// the same thread (guard-skipped on the failing candidate) are
	// emitted just before, in program order.
	for _, ev := range tr.Events {
		emitUpTo(ev.Thread, ev.Step)
	}
	// (iii): steps outside the deadlock set first...
	inDeadlock := map[int]int{}
	for _, d := range tr.Deadlocked {
		inDeadlock[d.Thread] = d.Step
	}
	for t := 0; t < n; t++ {
		if b, ok := inDeadlock[t]; ok {
			emitUpTo(t, b-1)
		} else {
			emitUpTo(t, len(p.Threads[t].Steps)-1)
		}
	}
	// ...then each blocked step (marked) and its thread's suffix.
	for t := 0; t < n; t++ {
		if b, ok := inDeadlock[t]; ok {
			if pos[t] == b && b < len(p.Threads[t].Steps) {
				out = append(out, Entry{Thread: t, Step: b, Deadlock: true})
				pos[t]++
			}
			emitUpTo(t, len(p.Threads[t].Steps)-1)
		}
	}
	return out
}

// Validate checks the structural invariants Build guarantees and
// Encode relies on: every (thread, step) instance of the program
// appears exactly once, and each thread's instances appear in
// ascending program order. It is the contract the fuzz targets and
// differential tests hold the projection to.
func Validate(p *ir.Program, entries []Entry) error {
	n := p.NumThreads()
	next := make([]int, n)
	for i, e := range entries {
		if e.Thread < 0 || e.Thread >= n {
			return fmt.Errorf("project: entry %d has thread %d out of range [0,%d)", i, e.Thread, n)
		}
		if e.Step != next[e.Thread] {
			return fmt.Errorf("project: entry %d (thread %d) has step %d, want %d (program order, no duplicates)", i, e.Thread, e.Step, next[e.Thread])
		}
		next[e.Thread]++
	}
	for t := 0; t < n; t++ {
		if next[t] != len(p.Threads[t].Steps) {
			return fmt.Errorf("project: thread %d emitted %d of %d steps", t, next[t], len(p.Threads[t].Steps))
		}
	}
	return nil
}

// encState is the projection-local control state threaded through the
// entries: the still-following-the-trace literal, per-thread liveness,
// and the accumulated deadlock condition.
type encState struct {
	active       circuit.Lit
	threadActive []circuit.Lit // by thread
	blockedAll   circuit.Lit
	anyDeadlock  bool
}

func newEncState(threads int) *encState {
	st := &encState{threadActive: make([]circuit.Lit, threads)}
	st.reset()
	return st
}

// reset returns the state to the start of a projection.
func (st *encState) reset() {
	st.active = circuit.True
	for t := range st.threadActive {
		st.threadActive[t] = circuit.True
	}
	st.blockedAll = circuit.True
	st.anyDeadlock = false
}

// applyEntry encodes one projected statement instance, mutating the
// evaluator and the control state. othersAfter is the entry's
// lookahead flag: whether a later entry belongs to another thread.
func applyEntry(b *circuit.Builder, e *sym.Evaluator, p *ir.Program, st *encState, en Entry, othersAfter bool) {
	seq := p.Threads[en.Thread]
	step := seq.Steps[en.Step]
	base := b.And(st.active, st.threadActive[en.Thread])
	g, c := e.StepParts(seq, step, base)
	switch {
	case en.Deadlock:
		// The thread is stuck here iff it reaches this step (guards
		// hold) and the condition is false; its remaining steps run
		// only if it was not stuck.
		blocked := b.And(g, c.Not())
		st.blockedAll = b.And(st.blockedAll, blocked)
		st.anyDeadlock = true
		st.threadActive[en.Thread] = b.And(st.threadActive[en.Thread], blocked.Not())
		g = b.And(g, c)
	case step.Cond != nil:
		blocked := b.And(g, c.Not())
		if othersAfter {
			// "Some other thread can make progress": the projected
			// trace diverges here; stop following it (OK).
			st.active = b.And(st.active, blocked.Not())
		} else {
			// No later entry belongs to another thread, so blocking
			// here is a deadlock — but only if every other thread has
			// genuinely finished. A thread parked at its own blocked
			// step (deadlock traces) is not finished: writes executed
			// after this order diverged may re-enable it, so its
			// liveness literal must gate the claim. Either way the
			// projected order stops here — without the deactivation,
			// later steps of this thread would execute from a state
			// that skipped the blocked step.
			dl := blocked
			for u, ta := range st.threadActive {
				if u != en.Thread {
					dl = b.And(dl, ta)
				}
			}
			e.FailIf(dl)
			st.active = b.And(st.active, blocked.Not())
		}
		g = b.And(g, c)
	}
	e.ExecStepBody(seq, step, g)
}

// finishEncode applies the accumulated deadlock constraint and the
// epilogue, and returns the failure literal.
func finishEncode(b *circuit.Builder, e *sym.Evaluator, p *ir.Program, st *encState) (circuit.Lit, error) {
	if st.anyDeadlock {
		e.FailIf(st.blockedAll)
	}
	// The epilogue's correctness checks apply when the trace ran to
	// completion and no thread is stuck.
	epiActive := st.active
	for _, ta := range st.threadActive {
		epiActive = b.And(epiActive, ta)
	}
	e.RunSeq(p.Epilogue, epiActive)
	if err := e.Err(); err != nil {
		return circuit.False, err
	}
	return e.Fail, nil
}

// Encode symbolically evaluates the projected trace program over the
// hole inputs and returns fail(Skt[c]) as a single literal.
func Encode(b *circuit.Builder, l *state.Layout, holes []circuit.Word, entries []Entry) (circuit.Lit, error) {
	p := l.Prog
	e := sym.New(b, l, holes)
	e.RunSeq(p.GlobalInit, circuit.True)
	e.RunSeq(p.Prologue, circuit.True)
	st := newEncState(len(p.Threads))
	others := lookahead(entries)
	for i, en := range entries {
		applyEntry(b, e, p, st, en, others[i])
	}
	return finishEncode(b, e, p, st)
}

// lookahead returns, for every entry, whether a later entry belongs to
// a different thread ("some other thread can make progress"). One
// backward pass: tail is the thread owning every entry after i, or -1
// once entries of two threads follow.
func lookahead(entries []Entry) []bool {
	out := make([]bool, len(entries))
	if len(entries) == 0 {
		return out
	}
	tail := entries[len(entries)-1].Thread
	for i := len(entries) - 2; i >= 0; i-- {
		if t := entries[i].Thread; t != tail {
			out[i] = true
			tail = -1
		}
	}
	return out
}
