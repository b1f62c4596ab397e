package sketches

import (
	"testing"

	"psketch/internal/core"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/state"
)

// This file cross-checks the parallel CEGIS engine (Parallelism 4)
// sketch by sketch: on every Table 1 benchmark the verdict must be the
// expected one with and without portfolio clause sharing, and every
// resolved candidate must independently model check. Candidates
// themselves may differ between configurations — several correct
// completions can exist — so the check is verdict + verification, not
// bitwise equality.

func TestPortfolioCrossCheckAllSketches(t *testing.T) {
	for _, b := range All() {
		b := b
		if testing.Short() && b.Name != "queueE1" && b.Name != "barrier1" {
			continue
		}
		test := b.Tests[0]
		t.Run(b.Name+"/"+test, func(t *testing.T) {
			sk := compile(t, b, test)
			want := b.Resolvable[test]
			var layout *state.Layout
			for _, noShare := range []bool{false, true} {
				syn, err := core.New(sk, core.Options{Parallelism: 4, NoShareClauses: noShare})
				if err != nil {
					t.Fatal(err)
				}
				res, err := syn.Synthesize()
				if err != nil {
					t.Fatal(err)
				}
				if res.Resolved != want {
					t.Fatalf("NoShareClauses=%v: resolved=%v, want %v", noShare, res.Resolved, want)
				}
				if !res.Resolved {
					continue
				}
				if layout == nil {
					prog, err := ir.Lower(sk)
					if err != nil {
						t.Fatal(err)
					}
					layout, err = state.NewLayout(prog)
					if err != nil {
						t.Fatal(err)
					}
				}
				mres, err := mc.Check(layout, res.Candidate, mc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !mres.OK {
					t.Fatalf("NoShareClauses=%v: resolved candidate %v fails verification: %s",
						noShare, res.Candidate, mres.Trace)
				}
			}
		})
	}
}

// The sequential engine (-j 1, sharing off) must reproduce its own
// verdict and per-iteration trajectory exactly run to run — the
// paper-comparable mode must stay bit-for-bit stable.
func TestSequentialEngineUnchanged(t *testing.T) {
	b := QueueE1()
	test := b.Tests[0]
	sk := compile(t, b, test)
	var ref *core.Result
	for run := 0; run < 2; run++ {
		syn, err := core.New(sk, core.Options{
			Parallelism: 1, NoShareClauses: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := syn.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resolved {
			t.Fatal("queueE1 must resolve")
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Stats.Iterations != ref.Stats.Iterations ||
			res.Stats.SATConfl != ref.Stats.SATConfl ||
			res.Stats.MCStates != ref.Stats.MCStates {
			t.Fatalf("sequential mode drifted: run %d iters=%d confl=%d states=%d vs iters=%d confl=%d states=%d",
				run, res.Stats.Iterations, res.Stats.SATConfl, res.Stats.MCStates,
				ref.Stats.Iterations, ref.Stats.SATConfl, ref.Stats.MCStates)
		}
		if res.Stats.SATExported != 0 {
			t.Fatalf("sequential mode exported clauses: %+v", res.Stats)
		}
		for i := range ref.Candidate {
			if res.Candidate.Value(i) != ref.Candidate.Value(i) {
				t.Fatalf("sequential candidate drifted: %v vs %v", res.Candidate, ref.Candidate)
			}
		}
	}
}
