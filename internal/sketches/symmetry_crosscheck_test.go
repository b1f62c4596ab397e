package sketches

import (
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/mc"
	"psketch/internal/oracle"
)

// TestSymmetryCrossCheckAllSketches sweeps every benchmark's zero
// candidate through {NoSymmetry}, the default and a parallel search and
// demands the naive reference checker's verdict from each, replaying
// every counterexample. mc.Options.NoSymmetry no longer selects a
// search (the thread-symmetry reduction it used to disable is gone) but
// is still set by existing callers, so at -j 1 it must also leave the
// state and transition counts exactly as the default search has them.
func TestSymmetryCrossCheckAllSketches(t *testing.T) {
	for _, b := range All() {
		b := b
		test := b.Tests[0]
		t.Run(b.Name+"/"+test, func(t *testing.T) {
			sk := compile(t, b, test)
			l := lowerBench(t, b, test)
			cand := make(desugar.Candidate, len(sk.Holes))
			v, err := oracle.CheckExhaustive(l, cand, 0)
			if err != nil {
				t.Fatal(err)
			}
			var res [3]*mc.Result
			for i, o := range []mc.Options{
				{NoSymmetry: true},
				{},
				{Parallelism: 4},
			} {
				res[i] = mcCheck(t, l, cand, o)
				if res[i].OK != v.OK {
					t.Fatalf("%+v verdict %v, oracle %v", o, res[i].OK, v.OK)
				}
				if !res[i].OK {
					replayTrace(t, l, cand, res[i].Trace)
				}
			}
			if res[0].States != res[1].States || res[0].Trans != res[1].Trans {
				t.Errorf("NoSymmetry changed the search: states/trans %d/%d, default %d/%d",
					res[0].States, res[0].Trans, res[1].States, res[1].Trans)
			}
		})
	}
}
