// Package sat is a from-scratch CDCL SAT solver: two-watched literals,
// first-UIP clause learning with recursive minimization, VSIDS-style
// activity with phase saving, and Luby restarts. It replaces the
// external SAT solver the SKETCH infrastructure delegated to (§5, §9:
// "delegates the effort of conducting an effective search to an
// efficient, general purpose SAT-based solver").
//
// The interface is incremental: clauses may be added between Solve
// calls, and Solve accepts assumptions, which is how the CEGIS loop
// grows the observation set one counterexample at a time.
//
// # Clause storage
//
// Clauses live in one flat, pointer-free []uint32 arena (MiniSat's
// layout, Eén & Sörensson 2003), problem and learnt clauses alike, in
// creation order. A clause is a header word — literal count << 2, plus
// a learnt bit and a deleted bit — followed by its literals; a learnt
// clause ends with its float64 activity in two more words. A clause is
// named by its offset (cref); word 0 is a dummy, so cref 0 means "no
// clause" in the per-variable reason array. AddClause and AddClauses
// append straight into the arena with no per-clause allocation, and
// nothing in the solver's clause data holds a pointer for the garbage
// collector to scan.
//
// A watcher is 8 bytes: a cref and a blocker literal. A long clause is
// watched on its literals 0 and 1 and its blocker is the other watched
// literal, as in MiniSat. A binary clause's watcher has binWatch set on
// its cref and the blocker is the clause's other literal, so propagate
// decides it — satisfied, unit or conflicting — from the watcher alone
// and never loads the clause. Binary clauses are therefore not
// reordered by propagation, and analyze finds a reason's implied
// literal by identity (it is the trail literal being resolved) rather
// than by position 0. A binary conflict is written back as [other
// literal, false literal], the order propagate leaves a long conflict
// in, so analyze reads every conflict in the same order whatever its
// length.
//
// reduceDB, which runs at a restart when the learnt clauses outgrow
// 4000 + half the problem clauses, marks the dropped learnt clauses
// deleted, compacts the arena in place (live clauses slide down in
// order; the learnt list and the reasons are repointed) and rebuilds
// the watch lists.
//
// # Concurrency contract
//
// A Solver is NOT goroutine-safe: all methods must be called from one
// goroutine at a time. The only cross-goroutine interaction is the
// cancellation token passed to SolveCancel — another goroutine may set
// it to make an in-flight solve return early (soundly: a canceled
// solve reports neither SAT nor UNSAT, and the solver remains usable
// for further AddClause/Solve calls).
//
// Portfolio races N diversified Solver instances (varied polarity
// defaults, VSIDS decay, Luby restart unit, and random-seeded branching
// tie-breaks) over the same clause set; the first definitive answer
// wins and cancels the rest. Each worker keeps its own learnt-clause
// database across calls, so portfolio state is incremental per worker
// across CEGIS iterations. A 1-worker Portfolio is bit-for-bit the
// plain Solver. Portfolio itself follows the same external contract as
// Solver: one caller goroutine; the internal worker goroutines exist
// only inside Solve and have all joined by the time it returns.
package sat

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"psketch/internal/drat"
	"psketch/internal/obs"
)

// Adder is the clause-construction half of the solver interface, the
// part the Tseitin encoder needs. Both Solver and Portfolio implement
// it (a Portfolio broadcasts to every worker, keeping variable indices
// aligned across them).
type Adder interface {
	NewVar() int
	AddClause(lits ...Lit) bool
}

// BatchAdder is the bulk-insertion extension of Adder: AddClauses takes
// many clauses at once as a flat literal slice plus end offsets (clause
// i is lits[ends[i-1]:ends[i]], with ends[-1] = 0). A Portfolio
// processes the whole batch worker-major — each worker consumes the
// clauses in order before the next worker starts — which touches every
// worker's watch/assignment arrays once per batch instead of once per
// clause. The per-worker clause stream is identical to repeated
// AddClause calls, so behaviour (including the -j 1 bit-for-bit
// contract) is unchanged. Returns false as soon as any insertion
// reports unsatisfiability.
type BatchAdder interface {
	Adder
	AddClauses(lits []Lit, ends []int) bool
}

// Config diversifies a solver instance for portfolio solving. The zero
// value is not meaningful; start from DefaultConfig.
type Config struct {
	// DefaultPolarity is the initial saved phase of fresh variables:
	// true branches the variable to false first (the MiniSat default).
	DefaultPolarity bool
	// VarDecay is the VSIDS variable-activity decay divisor (0 < d < 1;
	// smaller decays faster).
	VarDecay float64
	// ClaDecay is the clause-activity decay divisor.
	ClaDecay float64
	// LubyUnit is the number of conflicts per Luby restart unit.
	LubyUnit int
	// Seed seeds the xorshift generator for random branching
	// tie-breaks; 0 disables randomness entirely.
	Seed uint64
	// RandFreq is the fraction of branching decisions taken on a
	// uniformly random unassigned variable instead of the VSIDS pick.
	RandFreq float64
}

// DefaultConfig returns the configuration of New — the behaviour every
// sequential (-j 1) run reproduces.
func DefaultConfig() Config {
	return Config{DefaultPolarity: true, VarDecay: 0.95, ClaDecay: 0.999, LubyUnit: 100}
}

// DiverseConfig returns the configuration of portfolio worker i.
// Worker 0 is always DefaultConfig, so the portfolio's first worker
// explores exactly the sequential solver's search tree.
func DiverseConfig(i int) Config {
	cfg := DefaultConfig()
	if i == 0 {
		return cfg
	}
	cfg.DefaultPolarity = i%2 == 0
	decays := []float64{0.91, 0.97, 0.93, 0.99, 0.85, 0.95}
	cfg.VarDecay = decays[(i-1)%len(decays)]
	units := []int{50, 200, 100, 400, 150, 75}
	cfg.LubyUnit = units[(i-1)%len(units)]
	// splitmix64 of the worker index: distinct, deterministic seeds.
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	cfg.Seed = z ^ (z >> 31)
	cfg.RandFreq = 0.02
	return cfg
}

// Lit is a literal: variable v (0-based) encodes as 2v (positive) or
// 2v+1 (negated).
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// Clause arena layout (see the package comment). A clause reference
// (cref) is the offset of the clause's header word in Solver.ca; the
// header holds the literal count and the flags below, the literals
// follow it, and a learnt clause ends with its float64 activity in two
// words. Offset 0 is a dummy word, so cref 0 means "no clause".
const (
	hdrLearnt  = 1 << 0
	hdrDeleted = 1 << 1 // set by reduceDB, reclaimed by compact
	hdrShift   = 2      // literal count = header >> hdrShift

	// binWatch flags a watcher's ref when the clause is binary: the
	// blocker is then the clause's other literal, and propagate never
	// loads the clause itself.
	binWatch = 1 << 31
)

// watcher is one entry of a watch list: 8 bytes, no pointer.
type watcher struct {
	ref     uint32 // cref, with binWatch set for binary clauses
	blocker Lit    // a literal of the clause; true means skip the clause
}

// Solver is a CDCL SAT solver.
type Solver struct {
	ca         []uint32    // clause arena: problem and learnt clauses, in creation order
	numClauses int         // problem clauses in ca
	learnts    []uint32    // crefs of the learnt clauses, in arena order
	watches    [][]watcher // indexed by literal

	assigns  []lbool
	level    []int32
	reason   []uint32 // cref of the implying clause; 0 for decisions and units
	activity []float64
	polarity []bool // saved phases
	seen     []byte

	trail    []Lit
	trailLim []int32
	qhead    int
	model    []lbool

	order   *varHeap
	varInc  float64
	claInc  float64
	ok      bool
	scratch []Lit

	cfg      Config
	rngState uint64
	cancel   *atomic.Bool // read-only here; set by SolveCancel's caller
	cancel2  *atomic.Bool // second token (portfolio race + external cancel)

	// Clause sharing (portfolio members only; nil otherwise): the pool,
	// this worker's identity in it, and the fetch cursor.
	shared      *sharedPool
	sharedID    int
	shareCursor uint64

	// Cross-cube clause bus (cube-and-conquer members only; nil
	// otherwise): relays prefix-only clauses between solver groups, see
	// Bus. busID is the cube this solver belongs to.
	bus       *Bus
	busID     int
	busCursor uint64

	// DRAT proof logging (nil when disabled): every learnt clause is
	// stamped into the sink before it is exported to the shared
	// pool or the cube bus, so a recorder shared by portfolio workers
	// (or, through per-cube drat.Namespaces, by whole cube groups)
	// linearizes the merged derivation (see internal/drat).
	// proofPremises marks the one solver of a recorder-sharing group
	// that logs problem clauses (all portfolio workers receive the same
	// broadcast).
	proof         drat.Sink
	proofPremises bool
	dimacsBuf     []int

	// Tracing (nil tr when disabled; see trace.go). spanName lets a
	// portfolio rename its workers' spans to "sat.worker".
	tr         *obs.Tracer
	spanName   string
	spanParent obs.SpanID

	// Stats counts solver work for the Figure 9 columns.
	Stats struct {
		Conflicts    int64
		Decisions    int64
		Propagations int64
		Restarts     int64
		Learned      int64
		Reduces      int64
		Exported     int64 // learnt clauses published to the shared pool
		Imported     int64 // shared clauses adopted from other workers
		BusExported  int64 // learnt clauses relayed to the cross-cube bus
		BusImported  int64 // bus clauses adopted from other cubes
	}
}

// New returns an empty solver with the default configuration.
func New() *Solver { return NewWith(DefaultConfig()) }

// NewWith returns an empty solver with the given configuration.
func NewWith(cfg Config) *Solver {
	s := &Solver{ca: []uint32{0}, varInc: 1, claInc: 1, ok: true, cfg: cfg, rngState: cfg.Seed}
	s.order = &varHeap{s: s}
	return s
}

// Dimacs converts a literal to the DIMACS convention internal/drat
// uses: variable v as ±(v+1).
func Dimacs(l Lit) int {
	if l.Neg() {
		return -(l.Var() + 1)
	}
	return l.Var() + 1
}

// dimacs converts a clause into the scratch buffer (the recorder
// copies what it is handed).
func (s *Solver) dimacs(lits []Lit) []int {
	out := s.dimacsBuf[:0]
	for _, l := range lits {
		out = append(out, Dimacs(l))
	}
	s.dimacsBuf = out
	return out
}

// SetProof attaches a DRAT proof sink (a drat.Recorder, or a
// drat.Namespace of a shared one in cube mode): from now on every
// problem clause is logged as a premise and every learnt clause as a
// lemma, so UNSAT verdicts can be replayed through
// drat.Certificate.Verify. Attach the sink before adding clauses;
// clauses added earlier are missing from the log and the replay of a
// later UNSAT verdict may fail. Portfolio workers share one sink via
// Portfolio.SetProof instead.
func (s *Solver) SetProof(r drat.Sink) {
	s.proof = r
	s.proofPremises = true
	if r != nil {
		r.Attach()
	}
}

// SetBus connects the solver to the cross-cube clause bus as a member
// of cube id. Call between Solve calls only.
func (s *Solver) SetBus(b *Bus, id int) {
	s.bus, s.busID = b, id
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return s.numClauses }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, 0)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, s.cfg.DefaultPolarity) // true = branch false first
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l.Neg() {
		return v.neg()
	}
	return v
}

// Value returns the model value of a variable after a SAT result.
func (s *Solver) Value(v int) bool {
	return v < len(s.model) && s.model[v] == lTrue
}

// AddClause adds a problem clause. It returns false if the formula is
// already unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during solving")
	}
	// Log the clause as given — normalization below is itself a derived
	// fact (level-0 units), which the proof checker re-derives.
	if s.proof != nil && s.proofPremises {
		s.proof.AddPremise(s.dimacs(lits))
	}
	// Normalize: drop duplicate/false literals, detect tautologies.
	out := s.scratch[:0]
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			s.scratch = out
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				s.scratch = out
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.scratch = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], 0)
		s.ok = s.propagate() == 0
		return s.ok
	}
	s.attach(s.newClause(out, false))
	s.numClauses++
	return true
}

// AddClauses adds a batch of clauses (flat literals + end offsets),
// equivalent to calling AddClause on each in order.
func (s *Solver) AddClauses(lits []Lit, ends []int) bool {
	// One header word per clause: the batch's arena growth in one step.
	s.ca = slices.Grow(s.ca, len(lits)+len(ends))
	ok := true
	start := 0
	for _, end := range ends {
		if !s.AddClause(lits[start:end]...) {
			ok = false
		}
		start = end
	}
	return ok
}

// newClause appends a clause to the arena and returns its cref.
func (s *Solver) newClause(lits []Lit, learnt bool) uint32 {
	c := uint32(len(s.ca))
	// A cref must stay clear of the binWatch bit. 2^31 words is 8 GiB
	// of clauses, far past what a CEGIS instance reaches.
	if uint64(c)+uint64(len(lits))+3 >= binWatch {
		panic("sat: clause arena exceeds 2^31 words")
	}
	hdr := uint32(len(lits)) << hdrShift
	if learnt {
		hdr |= hdrLearnt
	}
	s.ca = append(s.ca, hdr)
	for _, l := range lits {
		s.ca = append(s.ca, uint32(l))
	}
	if learnt {
		s.ca = append(s.ca, 0, 0) // activity 0.0
	}
	return c
}

// clauseLits returns the literals of clause c, in place in the arena.
func (s *Solver) clauseLits(c uint32) []uint32 {
	return s.ca[c+1 : c+1+s.ca[c]>>hdrShift]
}

// clauseWords is the arena footprint of the clause with header hdr.
func clauseWords(hdr uint32) uint32 {
	return 1 + hdr>>hdrShift + 2*(hdr&hdrLearnt)
}

// claAct and setClaAct access a learnt clause's activity, stored after
// its literals.
func (s *Solver) claAct(c uint32) float64 {
	i := c + 1 + s.ca[c]>>hdrShift
	return math.Float64frombits(uint64(s.ca[i]) | uint64(s.ca[i+1])<<32)
}

func (s *Solver) setClaAct(c uint32, a float64) {
	i := c + 1 + s.ca[c]>>hdrShift
	b := math.Float64bits(a)
	s.ca[i], s.ca[i+1] = uint32(b), uint32(b>>32)
}

// attach watches the clause's first two literals.
func (s *Solver) attach(c uint32) {
	lits := s.clauseLits(c)
	l0, l1 := Lit(lits[0]), Lit(lits[1])
	ref := c
	if len(lits) == 2 {
		ref |= binWatch
	}
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{ref, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{ref, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from uint32) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the cref of a
// conflicting clause, or 0.
//
// A long clause keeps its two watched literals in positions 0 and 1
// and is visited with the false one moved to position 1, as in
// MiniSat. A binary clause is never loaded: its watcher's blocker is
// the other literal, which is either true (skip), unassigned (implied)
// or false (conflict).
func (s *Solver) propagate() uint32 {
	ca := s.ca
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		n := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := s.valueLit(w.blocker)
			if bv == lTrue {
				ws[n] = w
				n++
				continue
			}
			var c uint32
			if w.ref&binWatch != 0 {
				ws[n] = w
				n++
				c = w.ref &^ binWatch
				if bv != lFalse {
					s.uncheckedEnqueue(w.blocker, c)
					continue
				}
				// Conflict. analyze reads a conflict's literals in
				// clause order; store them as a long clause would
				// have them: the other literal, then the false one.
				ca[c+1], ca[c+2] = uint32(w.blocker), uint32(falseLit)
			} else {
				c = w.ref
				lits := ca[c+1 : c+1+ca[c]>>hdrShift]
				// Ensure the false literal is lits[1].
				if Lit(lits[0]) == falseLit {
					lits[0], lits[1] = lits[1], lits[0]
				}
				first := Lit(lits[0])
				if first != w.blocker && s.valueLit(first) == lTrue {
					ws[n] = watcher{c, first}
					n++
					continue
				}
				// Look for a new literal to watch.
				for k := 2; k < len(lits); k++ {
					if s.valueLit(Lit(lits[k])) != lFalse {
						lits[1], lits[k] = lits[k], lits[1]
						nw := Lit(lits[1]).Not()
						s.watches[nw] = append(s.watches[nw], watcher{c, first})
						continue nextWatch
					}
				}
				// Clause is unit or conflicting.
				ws[n] = watcher{c, first}
				n++
				if s.valueLit(first) != lFalse {
					s.uncheckedEnqueue(first, c)
					continue
				}
			}
			// Conflict: copy back remaining watchers and bail.
			for i++; i < len(ws); i++ {
				ws[n] = ws[i]
				n++
			}
			s.watches[p] = ws[:n]
			s.qhead = len(s.trail)
			return c
		}
		s.watches[p] = ws[:n]
	}
	return 0
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
//
// A reason clause is read in place: its implied literal, the trail
// literal p being resolved on, is skipped by identity. (A long reason
// holds p at position 0; a binary one may hold it at either position,
// since propagate never reorders binary clauses.)
func (s *Solver) analyze(confl uint32) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	first := true

	for {
		s.bumpClause(confl)
		for _, w := range s.clauseLits(confl) {
			q := Lit(w)
			if !first && q == p {
				continue // the reason's implied literal
			}
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		first = false
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Minimize: drop literals implied by the rest of the clause. Keep
	// the pre-minimization list so every seen flag is cleared below.
	full := append([]Lit(nil), learnt...)
	out := learnt[:1]
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reason[v] == 0 || !s.redundant(learnt[i], learnt) {
			out = append(out, learnt[i])
		}
	}
	learnt = out

	// Compute backtrack level = second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	// Clear seen flags (including literals dropped by minimization).
	for _, l := range full {
		s.seen[l.Var()] = 0
	}
	return learnt, btLevel
}

// redundant reports whether lit is implied by the other literals of the
// learnt clause (single-step self-subsumption test).
func (s *Solver) redundant(lit Lit, learnt []Lit) bool {
	r := s.reason[lit.Var()]
	if r == 0 {
		return false
	}
	for _, w := range s.clauseLits(r) {
		q := Lit(w)
		if q == lit.Not() {
			continue
		}
		v := q.Var()
		if s.level[v] == 0 {
			continue
		}
		inClause := false
		for _, o := range learnt {
			if o.Var() == v {
				inClause = true
				break
			}
		}
		if !inClause {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lFalse
		s.assigns[v] = lUndef
		s.reason[v] = 0
		s.order.insert(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c uint32) {
	if s.ca[c]&hdrLearnt == 0 {
		return
	}
	a := s.claAct(c) + s.claInc
	s.setClaAct(c, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setClaAct(l, s.claAct(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= s.cfg.VarDecay
	s.claInc /= s.cfg.ClaDecay
}

// nextRand steps the xorshift64 generator (only used when Seed != 0).
func (s *Solver) nextRand() uint64 {
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	return s.rngState
}

// pickBranchVar returns the highest-activity unassigned variable,
// occasionally (RandFreq of the time) a uniformly random one — the
// portfolio's branching tie-break diversification.
func (s *Solver) pickBranchVar() int {
	if s.cfg.Seed != 0 && len(s.order.heap) > 0 &&
		s.nextRand()%10000 < uint64(s.cfg.RandFreq*10000) {
		// Peek a random heap entry without removing it: if it is later
		// popped while assigned it is simply discarded, and backtracking
		// reinserts unassigned variables anyway.
		v := int(s.order.heap[s.nextRand()%uint64(len(s.order.heap))])
		if s.assigns[v] == lUndef {
			return v
		}
	}
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence.
func luby(y float64, x int) float64 {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	r := 1.0
	for i := 0; i < seq; i++ {
		r *= y
	}
	return r
}

// Solve searches for a model under the given assumptions. It returns
// true (model readable via Value) or false (UNSAT under assumptions).
func (s *Solver) Solve(assumptions ...Lit) bool {
	ok, _ := s.SolveCancel(nil, assumptions...)
	return ok
}

// SolveCancel is Solve with a cancellation token: when another
// goroutine sets cancel, the search unwinds at its next check and
// SolveCancel returns canceled=true with no verdict. The solver stays
// consistent and incremental — canceled solves keep their learnt
// clauses and may be re-solved or extended afterwards. A nil cancel is
// never checked.
func (s *Solver) SolveCancel(cancel *atomic.Bool, assumptions ...Lit) (sat, canceled bool) {
	return s.SolveCancel2(cancel, nil, assumptions...)
}

// solveCancel2 is the uninstrumented solve loop behind SolveCancel2
// (trace.go), which wraps it in a span when a tracer is attached.
func (s *Solver) solveCancel2(cancel, cancel2 *atomic.Bool, assumptions ...Lit) (sat, canceled bool) {
	if !s.ok {
		return false, false
	}
	s.cancel, s.cancel2 = cancel, cancel2
	defer func() {
		s.cancel, s.cancel2 = nil, nil
		s.backtrackTo(0)
	}()

	restarts := 0
	for {
		// Restart boundaries (and solve entry) are the import points for
		// pool clauses: the solver is at level 0, so normalization and
		// unit propagation are valid.
		if !s.importShared() {
			return false, false
		}
		confl := s.search(int(luby(2, restarts)*float64(s.cfg.LubyUnit)), assumptions)
		switch confl {
		case satisfied:
			s.model = append(s.model[:0], s.assigns...)
			return true, false
		case unsatisfiable:
			return false, false
		case canceledRes:
			return false, true
		}
		restarts++
		s.Stats.Restarts++
		s.backtrackTo(0)
		// Keep the learned-clause database bounded: CEGIS solves the
		// same growing instance many times, and stale low-activity
		// lemmas otherwise dominate propagation cost.
		if len(s.learnts) > 4000+s.NumClauses()/2 {
			s.reduceDB()
		}
	}
}

// exportLearnt publishes a freshly learned clause to the shared pool
// and the cross-cube bus when it passes the length and LBD quality
// gates (the bus additionally refuses clauses mentioning variables
// outside the shared prefix). The caller has already stamped the
// clause into the proof sink, so importers elsewhere always find it in
// the merged derivation.
func (s *Solver) exportLearnt(learnt []Lit) {
	if s.shared == nil && s.bus == nil {
		return
	}
	if len(learnt) > shareMaxLen || s.lbd(learnt) > shareMaxLBD {
		return
	}
	if s.shared != nil {
		s.shared.publish(s.sharedID, learnt)
		s.Stats.Exported++
	}
	if s.bus != nil && s.bus.Publish(s.busID, learnt) {
		s.Stats.BusExported++
	}
}

// lbd computes the literal-block distance of a clause: the number of
// distinct decision levels among its (currently assigned) literals.
func (s *Solver) lbd(lits []Lit) int {
	n := 0
	for i, l := range lits {
		lv := s.level[l.Var()]
		dup := false
		for _, m := range lits[:i] {
			if s.level[m.Var()] == lv {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// importShared adopts every pool and bus clause published since the
// last import (skipping this worker's own pool exports and its cube's
// bus exports). Must be called at decision level 0. Returns false when
// an import reveals the formula unsatisfiable.
func (s *Solver) importShared() bool {
	if s.shared != nil {
		cls, next := s.shared.fetch(s.shareCursor, s.sharedID)
		s.shareCursor = next
		for _, lits := range cls {
			if !s.addImported(lits, &s.Stats.Imported) {
				s.ok = false
				return false
			}
		}
	}
	if s.bus != nil {
		cls, next := s.bus.Fetch(s.busCursor, s.busID)
		s.busCursor = next
		for _, lits := range cls {
			if !s.addImported(lits, &s.Stats.BusImported) {
				s.ok = false
				return false
			}
		}
	}
	return true
}

// addImported installs one shared clause as a learnt clause: satisfied
// clauses are skipped, level-0-false literals dropped, units enqueued
// and propagated. The clause is implied by the problem clauses (see
// sharedPool and Bus), so all outcomes — including a propagation
// conflict, which proves UNSAT — are sound. counter is the Stats field
// credited on adoption.
func (s *Solver) addImported(lits []Lit, counter *int64) bool {
	out := s.scratch[:0]
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			s.scratch = out
			return true
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.scratch = out
	*counter++
	switch len(out) {
	case 0:
		return false
	case 1:
		s.uncheckedEnqueue(out[0], 0)
		return s.propagate() == 0
	}
	c := s.newClause(out, true)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	return true
}

// Conflicts returns the total conflicts seen, for stats reporting.
func (s *Solver) Conflicts() int64 { return s.Stats.Conflicts }

// reduceDB drops the lower-activity half of the learned clauses
// (keeping binary clauses and clauses currently used as reasons),
// compacts the arena and rebuilds the watcher lists.
func (s *Solver) reduceDB() {
	if s.decisionLevel() != 0 {
		return
	}
	sorted := append([]uint32(nil), s.learnts...)
	sort.Slice(sorted, func(i, j int) bool { return s.claAct(sorted[i]) < s.claAct(sorted[j]) })
	for _, c := range sorted[:len(sorted)/2] {
		if s.ca[c]>>hdrShift > 2 && !s.locked(c) {
			s.ca[c] |= hdrDeleted
		}
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.ca[c]&hdrDeleted == 0 {
			kept = append(kept, c)
		} else if s.proof != nil {
			// The recorder drops per-worker deletions when the proof is
			// shared by a portfolio (the merged database still holds the
			// clause); solo proofs keep them as real DRAT "d" lines.
			out := s.dimacsBuf[:0]
			for _, w := range s.clauseLits(c) {
				out = append(out, Dimacs(Lit(w)))
			}
			s.dimacsBuf = out
			s.proof.DeleteLemma(out)
		}
	}
	s.learnts = kept
	s.compact()
	// Rebuild watches from scratch: problem clauses first, then
	// learnts, each in creation order.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, learnt := range []uint32{0, hdrLearnt} {
		for c := uint32(1); c < uint32(len(s.ca)); c += clauseWords(s.ca[c]) {
			if s.ca[c]&hdrLearnt == learnt {
				s.attach(c)
			}
		}
	}
	s.Stats.Reduces++
}

// locked reports whether long clause c is the reason of its first
// literal (propagate only implies a long clause's position-0 literal).
func (s *Solver) locked(c uint32) bool {
	return s.reason[Lit(s.ca[c+1]).Var()] == c
}

// compact slides the live clauses down over the deleted ones, keeping
// arena order, and repoints the learnt list and the reasons at the new
// offsets. A moved clause only ever moves down, so a reason already
// repointed can never equal the old offset of a clause not yet moved.
// The watch lists still hold old crefs; the caller rebuilds them.
func (s *Solver) compact() {
	to, li := uint32(1), 0
	for from := uint32(1); from < uint32(len(s.ca)); {
		hdr := s.ca[from]
		n := clauseWords(hdr)
		if hdr&hdrDeleted == 0 {
			copy(s.ca[to:to+n], s.ca[from:from+n])
			// A binary reason may imply either of its literals.
			for _, w := range s.ca[to+1 : to+3] {
				if v := Lit(w).Var(); s.reason[v] == from {
					s.reason[v] = to
				}
			}
			if hdr&hdrLearnt != 0 {
				s.learnts[li] = to
				li++
			}
			to += n
		}
		from += n
	}
	s.ca = s.ca[:to]
}

type searchResult int

const (
	sResTimeout searchResult = iota
	satisfied
	unsatisfiable
	canceledRes
)

func (s *Solver) search(maxConflicts int, assumptions []Lit) searchResult {
	conflicts := 0
	for {
		if (s.cancel != nil && s.cancel.Load()) || (s.cancel2 != nil && s.cancel2.Load()) {
			return canceledRes
		}
		confl := s.propagate()
		if confl != 0 {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return unsatisfiable
			}
			learnt, btLevel := s.analyze(confl)
			// Stamp the lemma into the proof BEFORE exporting it: an
			// importer's later lemmas must sort after it in the merged
			// derivation order (internal/drat).
			if s.proof != nil {
				s.proof.AddLemma(s.dimacs(learnt))
			}
			// Export before backtracking: the LBD quality gate needs the
			// decision levels the literals were learned at.
			s.exportLearnt(learnt)
			// Backtracking may drop below the assumption levels; the
			// no-conflict branch re-establishes assumptions and reports
			// UNSAT if one has become false.
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				if s.valueLit(learnt[0]) == lFalse {
					return unsatisfiable
				}
				if s.valueLit(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], 0)
				}
			} else {
				c := s.newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.Stats.Learned++
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			if conflicts >= maxConflicts {
				return sResTimeout
			}
			continue
		}
		// No conflict: extend assumptions, then decide.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep the
				// level/assumption correspondence.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				return unsatisfiable
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(a, 0)
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return satisfied
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), 0)
	}
}

// ------------------------------------------------------------- varHeap

// varHeap is a binary max-heap on variable activity.
type varHeap struct {
	s       *Solver
	heap    []int32
	indices []int32 // var -> heap position + 1 (0 = absent)
}

func (h *varHeap) less(a, b int32) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) insert(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.indices[v] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] != 0 {
		h.up(int(h.indices[v]) - 1)
	}
}

func (h *varHeap) pop() int {
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[top] = 0
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 1
		h.down(0)
	}
	return int(top)
}

func (h *varHeap) up(i int) {
	x := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(x, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = int32(i + 1)
		i = p
	}
	h.heap[i] = x
	h.indices[x] = int32(i + 1)
}

func (h *varHeap) down(i int) {
	x := h.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.heap) {
			break
		}
		c := l
		if r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], x) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[c]] = int32(i + 1)
		i = c
	}
	h.heap[i] = x
	h.indices[x] = int32(i + 1)
}
