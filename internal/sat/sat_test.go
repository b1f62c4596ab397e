package sat

import (
	"math/rand"
	"testing"
	"unsafe"
)

func TestTrivial(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	if !s.Solve() {
		t.Fatal("expected SAT")
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("bad model a=%v b=%v", s.Value(a), s.Value(b))
	}
	s.AddClause(MkLit(b, true))
	if s.Solve() {
		t.Fatal("expected UNSAT")
	}
}

// pigeonhole n+1 pigeons, n holes: UNSAT.
func pigeonhole(t *testing.T, n int) {
	s := New()
	vars := make([][]int, n+1)
	for p := range vars {
		vars[p] = make([]int, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
	if s.Solve() {
		t.Fatalf("pigeonhole(%d): expected UNSAT", n)
	}
}

func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 7; n++ {
		pigeonhole(t, n)
	}
}

// Random 3-SAT at low clause density must be SAT and the model must
// satisfy every clause.
func TestRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		s := New()
		nv := 30
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		nc := 90
		for i := 0; i < nc; i++ {
			c := []Lit{
				MkLit(rng.Intn(nv), rng.Intn(2) == 0),
				MkLit(rng.Intn(nv), rng.Intn(2) == 0),
				MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		if !s.Solve() {
			continue // may be UNSAT; fine
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if s.Value(l.Var()) != l.Neg() {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("model does not satisfy clause %v", c)
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	s.AddClause(MkLit(b, true), MkLit(c, false)) // b -> c
	if !s.Solve(MkLit(a, false)) {
		t.Fatal("expected SAT under a")
	}
	if !s.Value(b) || !s.Value(c) {
		t.Fatal("implication chain not propagated")
	}
	s.AddClause(MkLit(c, true)) // !c
	if s.Solve(MkLit(a, false)) {
		t.Fatal("expected UNSAT under a")
	}
	if !s.Solve(MkLit(a, true)) {
		t.Fatal("expected SAT under !a")
	}
	// Incremental reuse after UNSAT-under-assumption.
	if !s.Solve() {
		t.Fatal("expected SAT with no assumptions")
	}
}

// A watcher is 8 bytes and holds no pointer, so watch lists stay dense
// and the garbage collector never scans them.
func TestWatcherLayout(t *testing.T) {
	if size := unsafe.Sizeof(watcher{}); size != 8 {
		t.Fatalf("watcher is %d bytes, want 8", size)
	}
}
