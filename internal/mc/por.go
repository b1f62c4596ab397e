package mc

import (
	"encoding/binary"
	"math/bits"

	"psketch/internal/ir"
	"psketch/internal/state"
)

// This file implements the checker's partial-order reduction: persistent
// sets choose which enabled threads to expand at each state, sleep sets
// prune transitions whose interleavings were already covered, and an
// open-addressed fingerprint table carries the per-state bookkeeping
// (which transitions were explored, which persistent set was chosen).
//
// Independence comes from the static footprint analysis in internal/ir:
// two transitions are independent when their shared-cell footprints do
// not conflict (write/write or write/read overlap). Conflict-freedom
// implies they commute and neither can enable or disable the other
// (blocking conditions read only footprint cells, guards are
// thread-local by construction).
//
// Soundness of the selective search: the interleaving space is a finite
// DAG (program counters strictly increase), failures and terminal
// states are sinks, and the search explores a persistent set at every
// expanded state — so every deadlock, every terminal state, and (up to
// commuting reorderings, which cannot change the failing step's effect)
// every failing transition remains reachable. Sleep sets only skip
// transitions whose successor subtree is explored from a sibling, and
// the per-state done-mask makes revisits through other paths explore
// exactly the transitions not yet claimed.

// fpBits is a bitset over the layout's shared cells.
type fpBits []uint64

func newFpBits(n int) fpBits { return make(fpBits, (n+63)/64) }

func (b fpBits) set(i int) { b[i>>6] |= 1 << uint(i&63) }

func (b fpBits) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b fpBits) setRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		b.set(i)
	}
}

func (b fpBits) setAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

func (b fpBits) or(o fpBits) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b fpBits) intersects(o fpBits) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// stepFP is one transition's flattened footprint.
type stepFP struct {
	r, w fpBits
}

// fpConflict reports whether two footprints are dependent: one writes a
// cell the other reads or writes.
func fpConflict(a, b stepFP) bool {
	return a.w.intersects(b.r) || a.w.intersects(b.w) || a.r.intersects(b.w)
}

// porTables holds the per-candidate footprint data: cur[t][pc] is the
// footprint of thread t's step at pc, fut[t][pc] the union over all its
// steps from pc on (fut[t][len] is empty — a finished thread conflicts
// with nothing).
type porTables struct {
	cur [][]stepFP
	fut [][]stepFP
}

// buildPOR flattens the symbolic footprints onto the layout's shared
// cells and precomputes the future (suffix) unions.
func buildPOR(l *state.Layout, fps [][]ir.Footprint) *porTables {
	n := l.SharedCells()
	p := l.Prog
	flatten := func(locs []ir.Loc, all bool) fpBits {
		b := newFpBits(n)
		if all {
			b.setAll()
			return b
		}
		for _, lc := range locs {
			switch {
			case lc.Global >= 0:
				off := l.GlobalOff(lc.Global)
				b.setRange(off+lc.Lo, off+lc.Hi)
			case lc.Field != "":
				lo, hi := lc.Slot, lc.Slot
				if lc.Slot == 0 {
					lo, hi = 1, p.Arenas[lc.Struct]
				}
				for s := lo; s <= hi; s++ {
					if off, err := l.FieldOff(lc.Struct, lc.Field, int32(s)); err == nil {
						b.set(off)
					}
				}
			default:
				// Allocation: every field of the site's slot.
				if si := p.Sketch.Info.Structs[lc.Struct]; si != nil {
					for _, f := range si.Fields {
						if off, err := l.FieldOff(lc.Struct, f.Name, int32(lc.Slot)); err == nil {
							b.set(off)
						}
					}
				}
			}
		}
		return b
	}

	t := &porTables{
		cur: make([][]stepFP, len(fps)),
		fut: make([][]stepFP, len(fps)),
	}
	for ti, steps := range fps {
		cur := make([]stepFP, len(steps))
		fut := make([]stepFP, len(steps)+1)
		fut[len(steps)] = stepFP{r: newFpBits(n), w: newFpBits(n)}
		for i, fp := range steps {
			cur[i] = stepFP{r: flatten(fp.Reads, fp.All), w: flatten(fp.Writes, fp.All)}
		}
		for i := len(steps) - 1; i >= 0; i-- {
			r, w := newFpBits(n), newFpBits(n)
			r.or(fut[i+1].r)
			w.or(fut[i+1].w)
			r.or(cur[i].r)
			w.or(cur[i].w)
			fut[i] = stepFP{r: r, w: w}
		}
		t.cur[ti], t.fut[ti] = cur, fut
	}
	return t
}

// curFP returns thread t's current-step footprint at st.
func (pt *porTables) curFP(st *state.State, t int) stepFP {
	return pt.cur[t][st.PCs[t]]
}

// indepCur reports whether the current transitions of u and t at st are
// independent.
func (pt *porTables) indepCur(st *state.State, u, t int) bool {
	return !fpConflict(pt.curFP(st, u), pt.curFP(st, t))
}

// persistentSet picks a sound persistent subset of the enabled threads
// at st: starting from each enabled seed, it closes under "some future
// step of an outside thread conflicts with a member's current step";
// a closure that would need a disabled thread is abandoned (a blocked
// thread has no transition to include, and its future conflict means
// outside threads could interfere after it unblocks). The smallest
// closure wins, ties broken by lowest seed — deterministic. Falls back
// to the full enabled set when every seed fails.
func (pt *porTables) persistentSet(st *state.State, enabled, unfin uint64) uint64 {
	if enabled == 0 || enabled&(enabled-1) == 0 {
		return enabled
	}
	best := enabled
	bestN := bits.OnesCount64(enabled)
	for seeds := enabled; seeds != 0; {
		s := bits.TrailingZeros64(seeds)
		seeds &^= 1 << uint(s)
		P := uint64(1) << uint(s)
		ok := true
		for changed := true; changed && ok; {
			changed = false
			for rest := unfin &^ P; rest != 0; {
				u := bits.TrailingZeros64(rest)
				rest &^= 1 << uint(u)
				if !pt.futureConflicts(st, u, P) {
					continue
				}
				if enabled&(1<<uint(u)) == 0 {
					ok = false
					break
				}
				P |= 1 << uint(u)
				changed = true
			}
		}
		if ok {
			if n := bits.OnesCount64(P); n < bestN {
				best, bestN = P, n
				if n == 1 {
					break
				}
			}
		}
	}
	return best
}

// futureConflicts reports whether any future step of u conflicts with
// the current step of any member of P.
func (pt *porTables) futureConflicts(st *state.State, u int, P uint64) bool {
	fu := pt.fut[u][st.PCs[u]]
	for rest := P; rest != 0; {
		p := bits.TrailingZeros64(rest)
		rest &^= 1 << uint(p)
		if fpConflict(fu, pt.curFP(st, p)) {
			return true
		}
	}
	return false
}

// childSleep computes the sleep set passed to the successor reached by
// executing t: threads already covered (inherited sleep plus siblings
// explored before t) stay asleep only while independent of t.
func (pt *porTables) childSleep(st *state.State, inherited uint64, t int) uint64 {
	out := uint64(0)
	for rest := inherited &^ (1 << uint(t)); rest != 0; {
		u := bits.TrailingZeros64(rest)
		rest &^= 1 << uint(u)
		if pt.indepCur(st, u, t) {
			out |= 1 << uint(u)
		}
	}
	return out
}

// ------------------------------------------------------ visited tables

// pmaskKnown flags a stored persistent mask as computed (so pmask 0 can
// mean "state has no expansion work": terminal, deadlocked, or failed).
const pmaskKnown = uint64(1) << 63

// fpTable is the sequential search's visited set: an open-addressed
// hash table from state fingerprints to the exploration bookkeeping,
// replacing the old map[[16]byte]bool (fewer allocations, one probe per
// lookup, and room for the done/persistent masks POR needs).
type fpTable struct {
	keys []([16]byte)
	done []uint64
	pm   []uint64
	used []bool
	n    int
}

func newFpTable() *fpTable {
	const cap0 = 1 << 10
	return &fpTable{
		keys: make([][16]byte, cap0),
		done: make([]uint64, cap0),
		pm:   make([]uint64, cap0),
		used: make([]bool, cap0),
	}
}

// slot finds or inserts the key, returning its index and whether it was
// inserted now. Indices are invalidated by the next insertion (growth).
func (t *fpTable) slot(k [16]byte) (int, bool) {
	if 4*(t.n+1) >= 3*len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := int(binary.LittleEndian.Uint64(k[:8])) & mask
	for t.used[i] {
		if t.keys[i] == k {
			return i, false
		}
		i = (i + 1) & mask
	}
	t.keys[i] = k
	t.used[i] = true
	t.n++
	return i, true
}

// bytes estimates the fingerprint table's live memory.
func (t *fpTable) bytes() uint64 {
	return uint64(len(t.keys)) * (16 + 8 + 8 + 1)
}

func (t *fpTable) grow() {
	old := *t
	n := len(old.keys) * 2
	t.keys = make([][16]byte, n)
	t.done = make([]uint64, n)
	t.pm = make([]uint64, n)
	t.used = make([]bool, n)
	mask := n - 1
	for i, u := range old.used {
		if !u {
			continue
		}
		j := int(binary.LittleEndian.Uint64(old.keys[i][:8])) & mask
		for t.used[j] {
			j = (j + 1) & mask
		}
		t.keys[j] = old.keys[i]
		t.done[j] = old.done[i]
		t.pm[j] = old.pm[i]
		t.used[j] = true
	}
}
