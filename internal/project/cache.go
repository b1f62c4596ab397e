package project

import (
	"psketch/internal/circuit"
	"psketch/internal/obs"
	"psketch/internal/state"
	"psketch/internal/sym"
)

// trieMaxBytes bounds the prefix trie's estimated retained bytes.
// Encode drops the whole trie when a call starts above the bound — never
// partway through a trace — so one trace can always reuse every prefix
// the previous traces left behind.
const trieMaxBytes = 32 << 20

// Estimated bytes each trie element retains, for SizeBytes: a node plus
// its edge in the child map, a delta record, and one literal of a
// delta's word.
const (
	nodeBytes  = 64
	deltaBytes = 12
	litBytes   = 4
)

// trieNode is the encoding state after one projected-entry prefix,
// stored as a delta against its parent: the final words of the cells
// this entry wrote (deltas[dlo:dhi]) plus the control state the entry
// left behind. Only the entry's own thread's liveness can change, so
// that is the one liveness literal a node keeps.
type trieNode struct {
	dlo, dhi    int32
	tact        circuit.Lit
	active      circuit.Lit
	blockedAll  circuit.Lit
	fail        circuit.Lit
	anyDeadlock bool
}

// cellDelta is one cell write of a node: the cell's final word is
// lits[lo:hi].
type cellDelta struct {
	off, lo, hi int32
}

// edge labels a trie child: its parent's node index and the child
// entry's packed key (entryKey).
type edge struct {
	parent int32
	key    uint64
}

// Cache memoizes projection encodings per trace-entry prefix on a
// shared hash-consed builder. Traces of one iteration (and of later
// iterations) overlap heavily in their projected prefixes, so the cache
// keeps a trie of encoded prefixes: each node holds only the cells its
// entry wrote. Encode restores the base state, replays the deltas along
// the longest matching path and symbolically executes only the rest.
// Because the builder hash-conses and the restored cells hold exactly
// the literals a re-execution would rebuild, the resulting failure
// literal is bit-for-bit the one the uncached Encode returns.
//
// A Cache is single-goroutine (it owns one persistent evaluator); the
// synthesizer calls it only from the projection step.
type Cache struct {
	b    *circuit.Builder
	l    *state.Layout
	e    *sym.Evaluator
	base sym.Snapshot // state after GlobalInit + Prologue
	st   *encState

	// The trie: nodes[0] is the root (the base state); edges maps a
	// (parent, entry) pair to the child's index. Deltas and their words
	// live in flat pointer-free arenas the garbage collector need not
	// scan.
	nodes     []trieNode
	edges     map[edge]int32
	deltas    []cellDelta
	lits      []circuit.Lit
	trieBytes int64 // estimated retained bytes of the trie

	// Hits counts Encode calls that restored at least one entry;
	// Misses counts calls replayed from the base state. SavedEntries
	// totals the projected entries skipped via restore.
	Hits, Misses, SavedEntries int64

	// Tracer, when set, emits one "project.encode" span per Encode
	// under Parent (the synthesizer repoints Parent at the current
	// iteration's projection span). Nil costs nothing.
	Tracer *obs.Tracer
	Parent obs.SpanID
}

// NewCache builds a cache bound to a builder/layout/holes triple. The
// global-init and prologue are evaluated once, here.
func NewCache(b *circuit.Builder, l *state.Layout, holes []circuit.Word) *Cache {
	e := sym.New(b, l, holes)
	e.RunSeq(l.Prog.GlobalInit, circuit.True)
	e.RunSeq(l.Prog.Prologue, circuit.True)
	e.LogWrites()
	c := &Cache{
		b:    b,
		l:    l,
		e:    e,
		base: e.Snapshot(),
		st:   newEncState(len(l.Prog.Threads)),
	}
	c.resetTrie()
	return c
}

func (c *Cache) resetTrie() {
	c.nodes = []trieNode{{}}
	c.edges = make(map[edge]int32)
	c.deltas = nil
	c.lits = nil
	c.trieBytes = nodeBytes
}

// entryKey packs an entry and its lookahead flag into one trie label:
// the encoding of a conditional entry depends on whether any later
// entry belongs to another thread, so two traces with equal prefix
// entries but different suffixes may still encode the prefix
// differently — the flag keeps such prefixes apart. Steps take 38 bits
// and threads the 24 above them.
func entryKey(en Entry, othersAfter bool) uint64 {
	k := uint64(en.Thread)<<40 | uint64(en.Step)<<2
	if en.Deadlock {
		k |= 1
	}
	if othersAfter {
		k |= 2
	}
	return k
}

// Encode is Encode (package function) with prefix memoization. The
// returned literal is identical to the uncached encoding's.
func (c *Cache) Encode(entries []Entry) (circuit.Lit, error) {
	sp := c.Tracer.Start("project.encode", c.Parent)
	if c.trieBytes > trieMaxBytes {
		c.resetTrie()
	}
	others := lookahead(entries)
	st := c.st
	st.reset()
	c.e.Restore(c.base)

	// Longest memoized prefix wins: follow matching edges from the
	// root, replaying each node's cell writes and liveness on the way.
	node := int32(0)
	start := 0
	for ; start < len(entries); start++ {
		child, ok := c.edges[edge{node, entryKey(entries[start], others[start])}]
		if !ok {
			break
		}
		node = child
		n := &c.nodes[node]
		for _, d := range c.deltas[n.dlo:n.dhi] {
			c.e.SetCell(int(d.off), c.lits[d.lo:d.hi:d.hi])
		}
		st.threadActive[entries[start].Thread] = n.tact
	}
	if start > 0 {
		n := &c.nodes[node]
		st.active, st.blockedAll, st.anyDeadlock = n.active, n.blockedAll, n.anyDeadlock
		c.e.Fail = n.fail
		c.Hits++
		c.SavedEntries += int64(start)
	} else {
		c.Misses++
	}

	for i := start; i < len(entries); i++ {
		applyEntry(c.b, c.e, c.l.Prog, st, entries[i], others[i])
		if c.e.Err() != nil {
			break
		}
		node = c.addNode(node, entryKey(entries[i], others[i]), entries[i].Thread)
	}
	// finishEncode mutates the evaluator past the last node; that is
	// fine — every later Encode starts from a Restore.
	lit, err := finishEncode(c.b, c.e, c.l.Prog, st)
	if sp.Active() {
		sp.End(obs.Int("entries", int64(len(entries))),
			obs.Int("restored", int64(start)),
			obs.Int("hit", hitFlag(start)))
	}
	return lit, err
}

// addNode records the entry just applied as a child of parent: the
// cells it wrote (drained from the evaluator's write log) and the
// control state it left. It returns the new node's index.
func (c *Cache) addNode(parent int32, key uint64, thread int) int32 {
	st := c.st
	n := trieNode{
		dlo:         int32(len(c.deltas)),
		tact:        st.threadActive[thread],
		active:      st.active,
		blockedAll:  st.blockedAll,
		fail:        c.e.Fail,
		anyDeadlock: st.anyDeadlock,
	}
	lits0 := len(c.lits)
	c.e.TakeWrites(func(off int, w circuit.Word) {
		lo := int32(len(c.lits))
		c.lits = append(c.lits, w...)
		c.deltas = append(c.deltas, cellDelta{off: int32(off), lo: lo, hi: int32(len(c.lits))})
	})
	n.dhi = int32(len(c.deltas))
	idx := int32(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.edges[edge{parent, key}] = idx
	c.trieBytes += nodeBytes + int64(n.dhi-n.dlo)*deltaBytes + int64(len(c.lits)-lits0)*litBytes
	return idx
}

// builderNodeBytes approximates the per-node footprint of the
// hash-consed circuit builder (two literals, the hash-cons map entry,
// and amortized slice growth). The encoded projection clauses live in
// the builder, so this is the dominant term of a warm context's size.
const builderNodeBytes = 32

// SizeBytes estimates the cache's retained memory: the shared builder's
// node array (the encoded clauses) plus the prefix trie's nodes and
// cell deltas. The warm-state store (Store) evicts on this estimate.
func (c *Cache) SizeBytes() int64 {
	return int64(c.b.NumNodes())*builderNodeBytes + c.trieBytes
}

func hitFlag(start int) int64 {
	if start > 0 {
		return 1
	}
	return 0
}
