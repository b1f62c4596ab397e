package sketches

import (
	"testing"

	"psketch/internal/core"
)

// Multi-trace learning ablation: several counterexamples per verifier
// call cut the iteration count on deadlock-heavy spaces (dinphilo).
// The count is the sequential engine's; the racing portfolio's varies
// run to run, so the test pins Parallelism 1.
func TestDinPhiloMultiTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sk := compile(t, DinPhilo(), "N=4,T=3")
	syn, err := core.New(sk, core.Options{TracesPerIteration: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	t.Logf("multi-trace: iters=%d total=%v (single-trace baseline: 71 iterations)",
		res.Stats.Iterations, res.Stats.Total)
	if res.Stats.Iterations >= 71 {
		t.Errorf("multi-trace learning did not reduce iterations: %d", res.Stats.Iterations)
	}
}
