package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/obs"
	"psketch/internal/oracle"
	"psketch/internal/parser"
	"psketch/internal/state"
)

// Each sketch's set-up is repeated at least setupMinReps times and for
// at least setupMinTime, and its median is reported. A few
// milliseconds of set-up need many repetitions for a steady median.
const (
	setupMinReps = 11
	setupMinTime = 250 * time.Millisecond
)

// synthesis is one timed sketch run, from source to verdict.
type synthesis struct {
	in      *sketchInput
	res     *core.Result
	err     error
	verdict time.Duration // parse through Synthesize
	newDur  time.Duration // core.New
	engine  time.Duration // core.New through Synthesize
	cpu     time.Duration
}

func compile(in *sketchInput) (*desugar.Sketch, error) {
	prog, err := parser.Parse(in.Src)
	if err != nil {
		return nil, err
	}
	return desugar.Desugar(prog, "Main", in.Opts)
}

// coreOptions gives every run its own metrics registry, so each
// Result.Stats field is per sketch rather than a running total.
func coreOptions(in *sketchInput, parallelism int, verbose func(string, ...any)) core.Options {
	return core.Options{
		Parallelism: parallelism,
		MCMaxStates: in.MCMaxStates,
		Metrics:     obs.NewMetrics(),
		Verbose:     verbose,
	}
}

// synthesize runs one sketch from source to verdict.
func synthesize(in *sketchInput, parallelism int, verbose func(string, ...any)) synthesis {
	out := synthesis{in: in}
	c0, t0 := cpuTime(), time.Now()
	sk, err := compile(in)
	if err == nil {
		t1 := time.Now()
		var syn *core.Synthesizer
		syn, err = core.New(sk, coreOptions(in, parallelism, verbose))
		out.newDur = time.Since(t1)
		if err == nil {
			out.res, err = syn.Synthesize()
		}
		out.engine = time.Since(t1)
	}
	out.verdict, out.cpu, out.err = time.Since(t0), cpuTime()-c0, err
	return out
}

// setupTime is the median time of parse + desugar + lower + core.New,
// summed over the workload's sketches.
func setupTime(ins []sketchInput, parallelism int) (time.Duration, error) {
	var total float64
	for i := range ins {
		var reps []float64
		for spent := time.Duration(0); len(reps) < setupMinReps || spent < setupMinTime; {
			runtime.GC()
			t0 := time.Now()
			sk, err := compile(&ins[i])
			if err == nil {
				_, err = core.New(sk, coreOptions(&ins[i], parallelism, nil))
			}
			if err != nil {
				return 0, fmt.Errorf("%s: %w", ins[i].Name, err)
			}
			d := time.Since(t0)
			spent += d
			reps = append(reps, float64(d))
		}
		total += median(reps)
	}
	return time.Duration(total), nil
}

// exactCounters are the work counters a parallelism-1 run must repeat
// exactly.
func exactCounters(st core.Stats) map[string]int64 {
	return map[string]int64{
		"iterations":     int64(st.Iterations),
		"sat.conflicts":  st.SATConfl,
		"sat.vars":       int64(st.SATVars),
		"sat.clauses":    int64(st.SATClauses),
		"mc.states":      int64(st.MCStates),
		"mc.transitions": int64(st.MCTrans),
	}
}

// determinism remembers each sketch's first exact counters and reports
// any later run that differs, naming the counter.
type determinism map[string]map[string]int64

func (d determinism) check(sketch string, got map[string]int64) []string {
	first, ok := d[sketch]
	if !ok {
		d[sketch] = got
		return nil
	}
	var diffs []string
	for _, k := range sortedKeys(got) {
		if got[k] != first[k] {
			diffs = append(diffs, fmt.Sprintf("determinism: %s: %s = %d, first run had %d", sketch, k, got[k], first[k]))
		}
	}
	return diffs
}

// verifier checks verdicts outside the timed region: against the
// paper's answer, and every resolved candidate against an independent
// checker (see recheck). Re-checks are cached per
// candidate, because a parallelism-1 run returns the same candidate
// every time.
type verifier struct {
	rechecked map[string]string // sketch+candidate -> "" or why it was rejected
	log       io.Writer
}

func newVerifier(log io.Writer) *verifier {
	return &verifier{rechecked: map[string]string{}, log: log}
}

// check returns "" when the verdict is right, else why it is not.
func (v *verifier) check(in *sketchInput, resolved bool, cand desugar.Candidate) string {
	if resolved != in.Want {
		return fmt.Sprintf("%s: verdict resolved=%v, paper says %v", in.Name, resolved, in.Want)
	}
	if !resolved {
		return ""
	}
	key := in.Name + fmt.Sprint(cand)
	if why, ok := v.rechecked[key]; ok {
		return why
	}
	t0 := time.Now()
	why := recheckCandidate(in, cand)
	fmt.Fprintf(v.log, "re-check %s %v: %.3fs\n", in.Name, cand, time.Since(t0).Seconds())
	v.rechecked[key] = why
	return why
}

func recheckCandidate(in *sketchInput, cand desugar.Candidate) string {
	sk, err := compile(in)
	if err != nil {
		return fmt.Sprintf("%s: re-check compile: %v", in.Name, err)
	}
	p, err := ir.Lower(sk)
	if err != nil {
		return fmt.Sprintf("%s: re-check lower: %v", in.Name, err)
	}
	l, err := state.NewLayout(p)
	if err != nil {
		return fmt.Sprintf("%s: re-check layout: %v", in.Name, err)
	}
	ok := false
	if in.Recheck == recheckOracle {
		var verdict *oracle.Verdict
		if verdict, err = oracle.CheckExhaustive(l, cand, 0); err == nil {
			ok = verdict.OK
		}
	} else {
		var mres *mc.Result
		opts := mc.Options{MaxStates: in.MCMaxStates, NoPOR: in.Recheck == recheckNoReduction, NoSymmetry: true, Parallelism: 1}
		if mres, err = mc.Check(l, cand, opts); err == nil {
			ok = mres.OK
		}
	}
	if err != nil {
		return fmt.Sprintf("%s: re-check of %v: %v", in.Name, cand, err)
	}
	if !ok {
		return fmt.Sprintf("%s: candidate %v fails the re-check", in.Name, cand)
	}
	return ""
}

// runUntraced measures the end-to-end metrics: the workload's sketches
// run back to back, pass after pass, until the budget is spent (at
// least one pass). Per-pass figures are reported as medians.
func runUntraced(ins []sketchInput, parallelism int, budget time.Duration, log io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(why string) {
		res.Correct = false
		fmt.Fprintln(log, "FAIL", why)
	}

	var runs []synthesis
	var passTotal, passCPU, passIters, passRSS []float64
	perSketch := map[string][]float64{}
	start := time.Now()
	for pass := 1; pass == 1 || time.Since(start) < budget; pass++ {
		var total, cpu, iters float64
		resetPeakRSS()
		for i := range ins {
			runtime.GC()
			s := synthesize(&ins[i], parallelism, nil)
			runs = append(runs, s)
			total += s.verdict.Seconds()
			cpu += s.cpu.Seconds()
			if s.res != nil {
				iters += float64(s.res.Stats.Iterations)
			}
			perSketch[s.in.Name] = append(perSketch[s.in.Name], s.verdict.Seconds())
			fmt.Fprintf(log, "pass %d %-24s %8.3fs cpu %8.3fs itns %3d\n", pass, s.in.Name, s.verdict.Seconds(), s.cpu.Seconds(), statsOf(s).Iterations)
		}
		passTotal, passCPU, passIters = append(passTotal, total), append(passCPU, cpu), append(passIters, iters)
		passRSS = append(passRSS, peakRSSMiB())
		fmt.Fprintf(log, "pass %d total %.3fs cpu %.3fs peak RSS %.1f MiB\n", pass, total, cpu, passRSS[len(passRSS)-1])
	}

	// Set-up is timed after the passes, in a process whose heap has
	// already grown, so page faults of a fresh heap do not blur it.
	setup, err := setupTime(ins, parallelism)
	if err != nil {
		fail("setup: " + err.Error())
	}

	v := newVerifier(log)
	det := determinism{}
	for _, s := range runs {
		res.Attempted++
		if why := s.failure(v); why != "" {
			res.Failed++
			fail(why)
			continue
		}
		if parallelism == 1 {
			for _, why := range det.check(s.in.Name, exactCounters(s.res.Stats)) {
				fail(why)
			}
		}
	}
	var medians []float64
	for _, in := range ins {
		medians = append(medians, median(perSketch[in.Name]))
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	set("total_s", median(passTotal))
	set("verdict_s_geomean", geomean(medians))
	set("setup_s", setup.Seconds())
	set("cpu_s", median(passCPU))
	set("peak_rss_mib", median(passRSS))
	set("iterations", median(passIters))
	set("verdicts_ok", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	return res
}

func statsOf(s synthesis) core.Stats {
	if s.res == nil {
		return core.Stats{}
	}
	return s.res.Stats
}

// failure returns "" for a run whose verdict is right and whose
// per-sketch phase times fit inside the sketch's own run time; else
// why the operation failed.
func (s synthesis) failure(v *verifier) string {
	if s.err != nil {
		return fmt.Sprintf("%s: %v", s.in.Name, s.err)
	}
	st := s.res.Stats
	// New's lowering and set-up encoding count toward VModel and SModel
	// but not toward Stats.Total, so the phases are bounded by the time
	// from core.New to the verdict.
	if sum := st.SSolve + st.SModel + st.VSolve + st.VModel; sum > s.engine {
		return fmt.Sprintf("%s: phase times sum to %v, more than the run's %v", s.in.Name, sum, s.engine)
	}
	return v.check(s.in, s.res.Resolved, s.res.Candidate)
}
