package sat

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// tseitinCNF builds a seeded random circuit the way circuit.ToSAT
// encodes one: AND and OR gates as one ternary clause plus two
// binaries, XOR gates as four ternaries, and wide AND gates as k
// binaries plus one long clause. It returns a sample of the gate
// outputs, which the caller constrains through assumptions.
func tseitinCNF(rng *rand.Rand, s *Solver, inputs, core, gates int) []int {
	nodes := make([]int, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		nodes = append(nodes, s.NewVar())
	}
	pick := func() Lit {
		// Prefer recent nodes so the circuit is deep, not flat.
		n := len(nodes)
		i := n - 1 - rng.Intn(min(n, 24))
		if rng.Intn(4) == 0 {
			i = rng.Intn(n)
		}
		return MkLit(nodes[i], rng.Intn(2) == 0)
	}
	// core random ternary clauses over the inputs: at about 4.1 per
	// input (the 3-SAT threshold) the search learns, restarts and
	// backjumps.
	for c := 0; c < core; c++ {
		s.AddClause(MkLit(nodes[rng.Intn(inputs)], rng.Intn(2) == 0),
			MkLit(nodes[rng.Intn(inputs)], rng.Intn(2) == 0),
			MkLit(nodes[rng.Intn(inputs)], rng.Intn(2) == 0))
	}
	var outs []int
	for g := 0; g < gates; g++ {
		o := s.NewVar()
		ol := MkLit(o, false)
		switch k := rng.Intn(10); {
		case k < 4: // o = a ∧ b
			a, b := pick(), pick()
			s.AddClause(ol.Not(), a)
			s.AddClause(ol.Not(), b)
			s.AddClause(ol, a.Not(), b.Not())
		case k < 7: // o = a ∨ b
			a, b := pick(), pick()
			s.AddClause(ol, a.Not())
			s.AddClause(ol, b.Not())
			s.AddClause(ol.Not(), a, b)
		case k < 9: // o = a ⊕ b
			a, b := pick(), pick()
			s.AddClause(ol.Not(), a, b)
			s.AddClause(ol.Not(), a.Not(), b.Not())
			s.AddClause(ol, a.Not(), b)
			s.AddClause(ol, a, b.Not())
		default: // o = ∧ of 4..8 inputs
			long := []Lit{ol}
			for j := 4 + rng.Intn(5); j > 0; j-- {
				a := pick()
				s.AddClause(ol.Not(), a)
				long = append(long, a.Not())
			}
			s.AddClause(long...)
		}
		nodes = append(nodes, o)
		if g%7 == 0 {
			outs = append(outs, o)
		}
	}
	return outs
}

// TestSearchTrajectoryPinned pins the sequential solver's exact search:
// a seeded run of incremental solves under assumptions on
// Tseitin-shaped CNF must reproduce these Stats and model hashes. A
// storage or propagation change that keeps the heuristics (VSIDS order,
// Luby restarts, learnt-clause literal order) keeps every number here;
// any drift means the search itself changed.
func TestSearchTrajectoryPinned(t *testing.T) {
	type step struct {
		sat       bool
		conflicts int64  // cumulative after this solve
		modelHash uint64 // FNV-1a of the model; 0 when UNSAT
	}
	rng := rand.New(rand.NewSource(7))
	s := New()
	outs := tseitinCNF(rng, s, 140, 574, 900)
	var got []step
	for round := 0; round < 12; round++ {
		if round%3 == 2 {
			// Grow the instance between solves, as CEGIS does.
			outs = append(outs, tseitinCNF(rng, s, 8, 0, 150)...)
		}
		var assume []Lit
		for j := 0; j < 5; j++ {
			assume = append(assume, MkLit(outs[rng.Intn(len(outs))], rng.Intn(2) == 0))
		}
		sat := s.Solve(assume...)
		st := step{sat: sat, conflicts: s.Stats.Conflicts}
		if sat {
			h := fnv.New64a()
			for v := 0; v < s.NumVars(); v++ {
				if s.Value(v) {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			st.modelHash = h.Sum64()
		}
		got = append(got, st)
	}
	want := []step{
		{false, 1, 0},
		{false, 2, 0},
		{false, 865, 0},
		{false, 866, 0},
		{true, 1819, 0x271ce65b88994336},
		{false, 1820, 0},
		{true, 1825, 0xb4f929abd7ac3bce},
		{false, 1826, 0},
		{true, 1907, 0x6c4fd3edc35bccc1},
		{false, 1908, 0},
		{false, 1910, 0},
		{false, 1910, 0},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solve %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	st := s.Stats
	if st.Conflicts != 1910 || st.Decisions != 2604 || st.Propagations != 201653 ||
		st.Learned != 1892 || st.Restarts != 12 {
		t.Errorf("stats drifted: %+v", st)
	}
}
