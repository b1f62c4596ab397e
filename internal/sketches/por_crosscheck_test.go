package sketches

import (
	"runtime"
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/interp"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/oracle"
	"psketch/internal/state"
)

// This file cross-checks the model checker's partial-order reduction
// against the unreduced search and the naive reference checker, sketch
// by sketch: the verdicts must be identical under every combination of
// {POR, NoPOR} × {local fusion on, off} × {sequential, parallel} and
// agree with internal/oracle, every POR counterexample must replay to
// the same failure on a concrete interpreter, and on the paper
// benchmarks POR must explore strictly fewer states.

func lowerBench(t *testing.T, b *Benchmark, test string) *state.Layout {
	t.Helper()
	sk := compile(t, b, test)
	prog, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	l, err := state.NewLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mcCheck(t *testing.T, l *state.Layout, cand desugar.Candidate, o mc.Options) *mc.Result {
	t.Helper()
	res, err := mc.Check(l, cand, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// replayTrace re-executes a counterexample schedule on a fresh state
// with the plain interpreter and demands it reproduce the reported
// failure — every POR trace must be a real schedule, not an artifact of
// the reduced search.
func replayTrace(t *testing.T, l *state.Layout, cand desugar.Candidate, tr *mc.Trace) {
	t.Helper()
	p := l.Prog
	st := l.NewState()
	for _, seq := range []*ir.Seq{p.GlobalInit, p.Prologue} {
		if f := replaySeq(l, st, seq, cand); f != nil {
			if tr.Phase == mc.PhasePrologue {
				return
			}
			t.Fatalf("replay: prologue failed unexpectedly: %s", f)
		}
	}
	if tr.Phase == mc.PhasePrologue {
		t.Fatal("replay: prologue did not fail")
	}

	var lastFail *interp.Failure
	for i, ev := range tr.Events {
		seq := p.Threads[ev.Thread]
		ctx := interp.NewCtx(l, st, seq, cand)
		// Guard-skipped steps are not trace events; replay the skips.
		for int(st.PCs[ev.Thread]) < ev.Step {
			step := seq.Steps[st.PCs[ev.Thread]]
			ok, f := ctx.EvalGuards(step)
			if f != nil {
				t.Fatalf("replay: guard failure before event %d: %s", i, f)
			}
			if ok {
				t.Fatalf("replay: event %d skips a guard-true step of thread %d", i, ev.Thread)
			}
			st.PCs[ev.Thread]++
		}
		step := seq.Steps[ev.Step]
		ok, f := ctx.EvalGuards(step)
		if f != nil || !ok {
			t.Fatalf("replay: event %d (thread %d step %d) has false guards", i, ev.Thread, ev.Step)
		}
		if step.Cond != nil {
			en, f := ctx.EvalCond(step)
			if f != nil || !en {
				t.Fatalf("replay: event %d (thread %d step %d) not enabled", i, ev.Thread, ev.Step)
			}
		}
		if f := ctx.ExecBody(step); f != nil {
			if i != len(tr.Events)-1 {
				t.Fatalf("replay: failure %s at event %d before the end of the trace", f, i)
			}
			lastFail = f
		}
		st.PCs[ev.Thread] = int32(ev.Step + 1)
	}

	switch {
	case lastFail != nil:
		if lastFail.Kind != tr.Failure.Kind {
			t.Fatalf("replay: failure kind %v, trace reported %v", lastFail.Kind, tr.Failure.Kind)
		}
	case tr.Phase == mc.PhaseEpilogue:
		if f := replaySeq(l, st, p.Epilogue, cand); f == nil {
			t.Fatal("replay: epilogue did not fail")
		} else if f.Kind != tr.Failure.Kind {
			t.Fatalf("replay: epilogue failure kind %v, trace reported %v", f.Kind, tr.Failure.Kind)
		}
	case len(tr.Deadlocked) > 0:
		// Every thread must be finished or blocked at the end state.
		for th := range p.Threads {
			if f := replayToBlock(l, st, th, cand); f != nil {
				t.Fatalf("replay: thread %d failed while checking deadlock: %s", th, f)
			}
			seq := p.Threads[th]
			if int(st.PCs[th]) < len(seq.Steps) {
				step := seq.Steps[st.PCs[th]]
				if step.Cond == nil {
					t.Fatalf("replay: deadlocked trace leaves thread %d enabled", th)
				}
			}
		}
	case tr.FailThread >= 0:
		// The failure happened while probing the failing thread's next
		// step (a guard or blocking-condition evaluation): re-running
		// that thread must hit it.
		f := replayToFailure(l, st, tr.FailThread, cand)
		if f == nil {
			t.Fatalf("replay: thread %d does not reproduce %s", tr.FailThread, tr.Failure)
		}
		if f.Kind != tr.Failure.Kind {
			t.Fatalf("replay: failure kind %v, trace reported %v", f.Kind, tr.Failure.Kind)
		}
	default:
		t.Fatalf("replay: trace shape not reproduced: %s", tr)
	}
}

// replaySeq runs a deterministic sequence to completion.
func replaySeq(l *state.Layout, st *state.State, seq *ir.Seq, cand desugar.Candidate) *interp.Failure {
	ctx := interp.NewCtx(l, st, seq, cand)
	for _, step := range seq.Steps {
		ok, f := ctx.EvalGuards(step)
		if f != nil {
			return f
		}
		if !ok {
			continue
		}
		if step.Cond != nil {
			en, f := ctx.EvalCond(step)
			if f != nil {
				return f
			}
			if !en {
				return &interp.Failure{Kind: interp.FailDeadlock, Pos: step.Pos}
			}
		}
		if f := ctx.ExecBody(step); f != nil {
			return f
		}
	}
	return nil
}

// replayToBlock advances a thread past guard-false steps, stopping at
// its first blocking step (or the end); a failure on the way is
// returned.
func replayToBlock(l *state.Layout, st *state.State, th int, cand desugar.Candidate) *interp.Failure {
	seq := l.Prog.Threads[th]
	ctx := interp.NewCtx(l, st, seq, cand)
	for int(st.PCs[th]) < len(seq.Steps) {
		step := seq.Steps[st.PCs[th]]
		ok, f := ctx.EvalGuards(step)
		if f != nil {
			return f
		}
		if !ok {
			st.PCs[th]++
			continue
		}
		if step.Cond != nil {
			en, f := ctx.EvalCond(step)
			if f != nil {
				return f
			}
			if !en {
				return nil // blocked here
			}
		}
		return nil // enabled here
	}
	return nil
}

// replayToFailure runs one thread forward until it fails (returning the
// failure) or blocks/finishes (returning nil).
func replayToFailure(l *state.Layout, st *state.State, th int, cand desugar.Candidate) *interp.Failure {
	seq := l.Prog.Threads[th]
	ctx := interp.NewCtx(l, st, seq, cand)
	for int(st.PCs[th]) < len(seq.Steps) {
		step := seq.Steps[st.PCs[th]]
		ok, f := ctx.EvalGuards(step)
		if f != nil {
			return f
		}
		if !ok {
			st.PCs[th]++
			continue
		}
		if step.Cond != nil {
			en, f := ctx.EvalCond(step)
			if f != nil {
				return f
			}
			if !en {
				return nil
			}
		}
		if f := ctx.ExecBody(step); f != nil {
			return f
		}
		st.PCs[th]++
	}
	return nil
}

// TestPORCrossCheckAllSketches model checks the all-zero candidate of
// every Table 1 benchmark under {POR, NoPOR} × {fusion, NoLocalFusion}
// × {-j 1, -j N}: the verdict must be identical in all eight
// configurations and equal the naive reference checker's
// (oracle.CheckExhaustive, no reduction beyond guard skipping), and
// every POR counterexample must replay concretely.
func TestPORCrossCheckAllSketches(t *testing.T) {
	jN := runtime.GOMAXPROCS(0)
	if jN < 2 {
		jN = 2
	}
	for _, b := range All() {
		b := b
		test := b.Tests[0]
		t.Run(b.Name+"/"+test, func(t *testing.T) {
			sk := compile(t, b, test)
			prog, err := ir.Lower(sk)
			if err != nil {
				t.Fatal(err)
			}
			l, err := state.NewLayout(prog)
			if err != nil {
				t.Fatal(err)
			}
			cand := make(desugar.Candidate, len(sk.Holes))
			ref, err := oracle.CheckExhaustive(l, cand, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := 0 // 0/1 verdict, the oracle's
			if ref.OK {
				want = 1
			}
			for _, fusionOff := range []bool{false, true} {
				for _, noPOR := range []bool{false, true} {
					for _, j := range []int{1, jN} {
						res := mcCheck(t, l, cand, mc.Options{
							NoPOR: noPOR, NoLocalFusion: fusionOff, Parallelism: j,
						})
						got := 0
						if res.OK {
							got = 1
						}
						if got != want {
							t.Fatalf("verdict differs from the oracle's: NoPOR=%v NoLocalFusion=%v j=%d: OK=%v (oracle %v)",
								noPOR, fusionOff, j, res.OK, ref.OK)
						}
						if !res.OK && !noPOR {
							replayTrace(t, l, cand, res.Trace)
						}
					}
				}
			}
		})
	}
}

// TestPORStateReduction checks the acceptance bar for the reduction:
// on verified candidates of the paper benchmarks, the POR search
// reaches the same verdict while expanding strictly fewer states than
// the unreduced search, sequentially and in parallel.
func TestPORStateReduction(t *testing.T) {
	jN := runtime.GOMAXPROCS(0)
	if jN < 2 {
		jN = 2
	}
	cases := []struct {
		bench *Benchmark
		test  string
		// cand, when non-nil, skips synthesis (queueE1's known
		// solution); otherwise the candidate is synthesized in-test.
		cand desugar.Candidate
		// tieOK allows POR to merely match the fused state count
		// (barrier1's local fusion already collapses the commuting
		// steps; POR still cuts transitions and the unfused states).
		tieOK bool
	}{
		{QueueE1(), "ed(ed|ed)", desugar.Candidate{0, 0}, false},
		{Barrier1(), "N=2,B=2", nil, true},
		{FineSet1(), "a(a|r)", nil, false},
		{DinPhilo(), "N=3,T=2", nil, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.bench.Name+"/"+c.test, func(t *testing.T) {
			cand := c.cand
			if cand == nil {
				res, _ := synth(t, c.bench, c.test, false)
				if !res.Resolved {
					t.Fatalf("%s %s did not resolve", c.bench.Name, c.test)
				}
				cand = res.Candidate
			}
			l := lowerBench(t, c.bench, c.test)
			full := mcCheck(t, l, cand, mc.Options{NoPOR: true})
			por := mcCheck(t, l, cand, mc.Options{})
			if !full.OK || !por.OK {
				t.Fatalf("candidate not verified: NoPOR OK=%v POR OK=%v", full.OK, por.OK)
			}
			t.Logf("states: NoPOR=%d POR=%d (%.1f%%), trans: NoPOR=%d POR=%d",
				full.States, por.States, 100*float64(por.States)/float64(full.States),
				full.Trans, por.Trans)
			if c.tieOK {
				if por.States > full.States || por.Trans >= full.Trans {
					t.Errorf("POR regresses: states %d vs %d, trans %d vs %d",
						por.States, full.States, por.Trans, full.Trans)
				}
			} else if por.States >= full.States {
				t.Errorf("POR does not reduce states: %d >= %d", por.States, full.States)
			}

			// The parallel NoPOR search visits exactly the sequential
			// state set; the parallel POR search stays within it.
			fullJ := mcCheck(t, l, cand, mc.Options{NoPOR: true, Parallelism: jN})
			porJ := mcCheck(t, l, cand, mc.Options{Parallelism: jN})
			if !fullJ.OK || !porJ.OK {
				t.Fatalf("parallel verdict flips: NoPOR OK=%v POR OK=%v", fullJ.OK, porJ.OK)
			}
			if fullJ.States != full.States {
				t.Errorf("parallel NoPOR states %d != sequential %d", fullJ.States, full.States)
			}
			if porJ.States > full.States {
				t.Errorf("parallel POR states %d > unreduced %d", porJ.States, full.States)
			}

			// POR composes with disabling local fusion.
			fullNF := mcCheck(t, l, cand, mc.Options{NoPOR: true, NoLocalFusion: true})
			porNF := mcCheck(t, l, cand, mc.Options{NoLocalFusion: true})
			if !fullNF.OK || !porNF.OK {
				t.Fatalf("NoLocalFusion verdict flips: NoPOR OK=%v POR OK=%v", fullNF.OK, porNF.OK)
			}
			t.Logf("states (NoLocalFusion): NoPOR=%d POR=%d", fullNF.States, porNF.States)
			if porNF.States >= fullNF.States {
				t.Errorf("POR does not reduce unfused states: %d >= %d", porNF.States, fullNF.States)
			}
		})
	}
}
