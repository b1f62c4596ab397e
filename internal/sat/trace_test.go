package sat

import (
	"math/rand"
	"testing"

	"psketch/internal/obs"
)

// Each traced solve's span carries that solve's work deltas, restarts
// and learnt clauses included, so a journal shows why a solve was slow.
func TestSolveSpanAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	outs := tseitinCNF(rng, s, 140, 574, 900)
	ring := obs.NewRingSink(8)
	s.SetTracer(obs.NewTracer(ring))
	var restarts, learned int64
	for round := 0; round < 4; round++ {
		before := s.Stats
		s.Solve(MkLit(outs[rng.Intn(len(outs))], false), MkLit(outs[rng.Intn(len(outs))], true))
		spans := ring.Spans()
		sp := spans[len(spans)-1]
		if sp.Name != "sat.solve" {
			t.Fatalf("span %q, want sat.solve", sp.Name)
		}
		for key, want := range map[string]int64{
			"conflicts":    s.Stats.Conflicts - before.Conflicts,
			"propagations": s.Stats.Propagations - before.Propagations,
			"restarts":     s.Stats.Restarts - before.Restarts,
			"learned":      s.Stats.Learned - before.Learned,
		} {
			if got := sp.IntAttr(key); got != want {
				t.Fatalf("solve %d: span %s=%d, Stats delta %d", round, key, got, want)
			}
		}
		restarts += sp.IntAttr("restarts")
		learned += sp.IntAttr("learned")
	}
	if restarts == 0 || learned == 0 {
		t.Fatalf("vacuous: restarts=%d learned=%d over the traced solves", restarts, learned)
	}
}
