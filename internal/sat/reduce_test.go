package sat

import (
	"math/rand"
	"strings"
	"testing"

	"psketch/internal/drat"
)

// checkArena verifies the clause arena's invariants: every header is
// live and well formed, the learnt list and the problem count match the
// arena, each clause is watched exactly on its first two literals, and
// every reason points at a clause start holding the implied literal.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	starts := map[uint32]bool{}
	var learnts []uint32
	problems := 0
	for c := uint32(1); c < uint32(len(s.ca)); c += clauseWords(s.ca[c]) {
		hdr := s.ca[c]
		if hdr&hdrDeleted != 0 || hdr>>hdrShift < 2 {
			t.Fatalf("cref %d: bad header %#x", c, hdr)
		}
		starts[c] = true
		if hdr&hdrLearnt != 0 {
			learnts = append(learnts, c)
		} else {
			problems++
		}
	}
	if problems != s.numClauses {
		t.Fatalf("arena holds %d problem clauses, numClauses=%d", problems, s.numClauses)
	}
	if len(learnts) != len(s.learnts) {
		t.Fatalf("arena holds %d learnts, list has %d", len(learnts), len(s.learnts))
	}
	for i := range learnts {
		if learnts[i] != s.learnts[i] {
			t.Fatalf("learnt %d: list cref %d, arena cref %d", i, s.learnts[i], learnts[i])
		}
	}
	watched := map[watcher]int{}
	nw := 0
	for l, ws := range s.watches {
		for _, w := range ws {
			watched[watcher{w.ref, Lit(l)}]++
			nw++
		}
	}
	if nw != 2*len(starts) {
		t.Fatalf("%d watchers for %d clauses", nw, len(starts))
	}
	for c := range starts {
		lits := s.clauseLits(c)
		ref := c
		if len(lits) == 2 {
			ref |= binWatch
		}
		for _, w := range lits[:2] {
			if watched[watcher{ref, Lit(w).Not()}] != 1 {
				t.Fatalf("clause %d not watched once on %d", c, Lit(w))
			}
		}
	}
	for v, r := range s.reason {
		if r == 0 {
			continue
		}
		if !starts[r] {
			t.Fatalf("var %d: reason %d is not a clause", v, r)
		}
		implied := false
		for _, w := range s.clauseLits(r) {
			if Lit(w).Var() == v && s.valueLit(Lit(w)) == lTrue {
				implied = true
			}
		}
		if !implied {
			t.Fatalf("var %d: reason %d does not imply it", v, r)
		}
	}
}

// TestReduceDBCompaction calls reduceDB between incremental solves,
// while learnt clauses exist and some of them are locked as level-0
// reasons. Every answer must agree with brute force, the arena must
// stay consistent after each compaction, and the solo DRAT log — with
// the dropped lemmas as "d" lines — must still certify every UNSAT.
func TestReduceDBCompaction(t *testing.T) {
	const nv = 16
	rng := rand.New(rand.NewSource(5))
	s := New()
	rec := drat.NewRecorder()
	s.SetProof(rec)
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	var clauses [][]Lit
	add := func(c ...Lit) {
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	randLit := func() Lit { return MkLit(rng.Intn(nv), rng.Intn(2) == 0) }
	randClause := func() {
		add(randLit(), randLit(), randLit(), randLit(), randLit())
	}
	// Random 5-SAT near its threshold: on few enough variables for
	// brute force, the search still learns many long clauses.
	for i := 0; i < 260; i++ {
		randClause()
	}
	dropped, lockedKept, unsatCerts := 0, 0, 0
	for round := 0; s.ok && round < 60; round++ {
		assume := []Lit{randLit(), randLit()}
		got := s.Solve(assume...)
		withAssume := append(append([][]Lit(nil), clauses...), assume[:1], assume[1:])
		if want := bruteForce(nv, withAssume); got != want {
			t.Fatalf("round %d: solver says %v, brute force %v", round, got, want)
		}
		if got {
			for _, c := range withAssume {
				if !satisfiedBy(s, c) {
					t.Fatalf("round %d: model violates %v", round, c)
				}
			}
		} else {
			dim := []int{Dimacs(assume[0]), Dimacs(assume[1])}
			if _, err := rec.Certificate(dim).Verify(); err != nil {
				t.Fatalf("round %d: certificate rejected after compaction: %v", round, err)
			}
			unsatCerts++
		}
		if round%4 != 3 || !s.Solve() {
			continue
		}
		// Lock a long learnt clause: falsify all but its first literal
		// with problem units, so level-0 propagation makes it a reason.
		// Pick one whose other literals the model just found falsifies,
		// so the instance stays satisfiable.
		for _, c := range s.learnts {
			lits := s.clauseLits(c)
			if len(lits) < 3 || s.valueLit(Lit(lits[0])) != lUndef {
				continue
			}
			// Copy out: propagating the units reorders lits in place.
			var rest []Lit
			for _, w := range lits[1:] {
				rest = append(rest, Lit(w))
			}
			if satisfiedBy(s, rest) {
				continue
			}
			for _, l := range rest {
				add(l.Not())
			}
			break
		}
		before := len(s.learnts)
		for _, c := range s.learnts {
			if s.ca[c]>>hdrShift > 2 && s.locked(c) {
				lockedKept++
			}
		}
		s.reduceDB()
		dropped += before - len(s.learnts)
		checkArena(t, s)
		randClause()
	}
	// Drive the instance to UNSAT for the final certificate.
	for s.Solve() {
		add(randLit(), randLit())
	}
	if bruteForce(nv, clauses) {
		t.Fatal("solver says UNSAT, brute force finds a model")
	}
	cert := rec.Certificate(nil)
	if _, err := cert.Verify(); err != nil {
		t.Fatalf("final certificate rejected: %v", err)
	}
	deletions := strings.Count("\n"+cert.Proof(), "\nd ")
	t.Logf("dropped=%d lockedKept=%d unsatCerts=%d deletions=%d reduces=%d",
		dropped, lockedKept, unsatCerts, deletions, s.Stats.Reduces)
	if dropped == 0 || lockedKept == 0 || unsatCerts == 0 {
		t.Fatalf("vacuous: dropped=%d lockedKept=%d unsatCerts=%d", dropped, lockedKept, unsatCerts)
	}
	if deletions != dropped {
		t.Fatalf("proof has %d deletions, reduceDB dropped %d learnts", deletions, dropped)
	}
}

// satisfiedBy reports whether the solver's model satisfies clause c.
func satisfiedBy(s *Solver, c []Lit) bool {
	for _, l := range c {
		if s.Value(l.Var()) != l.Neg() {
			return true
		}
	}
	return false
}
