package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"psketch/internal/circuit"
	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/parser"
	"psketch/internal/project"
	"psketch/internal/sat"
	"psketch/internal/state"
	"psketch/internal/sym"
)

// perLayerUnits lists the traced run's metrics, named by module.
var perLayerUnits = map[string]string{
	"parser.parse_s":               "s",
	"desugar.desugar_s":            "s",
	"desugar.holes":                "count",
	"desugar.log10_c":              "log10",
	"ir.lower_s":                   "s",
	"ir.steps":                     "count",
	"core.new_s":                   "s",
	"sat.solve_s":                  "s",
	"sat.solves":                   "count",
	"sat.max_solve_s":              "s",
	"sat.conflicts":                "count",
	"sat.propagations":             "count",
	"sat.decisions":                "count",
	"sat.restarts":                 "count",
	"sat.learned":                  "count",
	"sat.vars":                     "count",
	"sat.clauses":                  "count",
	"sat.alloc_mib":                "MiB",
	"project.build_s":              "s",
	"project.traces":               "count",
	"project.entries":              "count",
	"project.encode_s":             "s",
	"project.cache_hits":           "count",
	"project.cache_misses":         "count",
	"project.encode_alloc_mib":     "MiB",
	"circuit.tosat_s":              "s",
	"circuit.nodes":                "count",
	"circuit.clauses_added":        "count",
	"mc.check_s":                   "s",
	"mc.checks":                    "count",
	"mc.cex_checks":                "count",
	"mc.states":                    "count",
	"mc.transitions":               "count",
	"mc.states_per_s":              "1/s",
	"mc.visited_mib":               "MiB",
	"mc.alloc_mib":                 "MiB",
	"core.solve_s":                 "s",
	"core.self_s":                  "s",
	"core.iterations":              "count",
	"core.spec_hit_ratio":          "ratio",
	"sat.portfolio_wins_max_share": "ratio",
	"sat.imported_per_exported":    "ratio",
	"mc.worker_states_max_share":   "ratio",
	"go.gc_cpu_s":                  "s",
	"trace.overhead_s":             "s",
}

// maxKeys are tallied as a maximum instead of a sum.
var maxKeys = map[string]bool{"sat.max_solve_s": true, "mc.visited_mib": true}

// tally accumulates layer figures. Keys starting with "_" are raw
// inputs of the ratios computed in finish.
type tally map[string]float64

func (t tally) add(k string, v float64) {
	if maxKeys[k] {
		t[k] = math.Max(t[k], v)
		return
	}
	t[k] += v
}

func (t tally) merge(o tally) {
	for k, v := range o {
		t.add(k, v)
	}
}

// finish derives the ratios and self time and drops the raw inputs.
func (t tally) finish() {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	t["mc.states_per_s"] = ratio(t["mc.states"], t["mc.check_s"])
	t["core.spec_hit_ratio"] = ratio(t["_spec_hits"], t["_spec_solves"])
	t["sat.imported_per_exported"] = ratio(t["_sat_imported"], t["_sat_exported"])
	var wins, winMax, states, stateMax float64
	for k, v := range t {
		switch {
		case strings.HasPrefix(k, "_sat_wins."):
			wins += v
			winMax = math.Max(winMax, v)
		case strings.HasPrefix(k, "_mc_worker_states."):
			states += v
			stateMax = math.Max(stateMax, v)
		}
	}
	t["sat.portfolio_wins_max_share"] = ratio(winMax, wins)
	t["mc.worker_states_max_share"] = ratio(stateMax, states)
	layers := t["sat.solve_s"] + t["project.build_s"] + t["project.encode_s"] + t["circuit.tosat_s"] + t["mc.check_s"]
	t["core.self_s"] = t["core.solve_s"] - layers
	for k := range t {
		if strings.HasPrefix(k, "_") {
			delete(t, k)
		}
	}
}

// span is one recorded call into a layer. The spans of one synthesis
// share Req (sketch and pass).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     string `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	req   string
	spans []span
}

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, StartNS: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.DurNS = int64(time.Since(t.epoch)) - s.StartNS
	return time.Duration(s.DurNS)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// allocMiB is the heap allocated so far by the process.
func allocMiB() float64 {
	metrics.Read(runtimeSamples)
	return float64(runtimeSamples[0].Value.Uint64()) / (1 << 20)
}

// gcCPU is the CPU time the garbage collector has used so far.
func gcCPU() float64 {
	metrics.Read(runtimeSamples)
	return runtimeSamples[1].Value.Float64()
}

// backend is the part of sat.Solver and sat.Portfolio the loop uses.
type backend interface {
	sat.BatchAdder
	Solve(assumptions ...sat.Lit) bool
	Value(v int) bool
	NumVars() int
	NumClauses() int
}

// countingBackend counts the clauses handed to the solver. It keeps the
// batch path, so the solver sees the same clause stream as in core.
type countingBackend struct {
	backend
	clauses int64
}

func (c *countingBackend) AddClause(lits ...sat.Lit) bool {
	c.clauses++
	return c.backend.AddClause(lits...)
}

func (c *countingBackend) AddClauses(lits []sat.Lit, ends []int) bool {
	c.clauses += int64(len(ends))
	return c.backend.AddClauses(lits, ends)
}

// satWork is the SAT search work done so far, summed over workers.
type satWork struct{ conflicts, decisions, propagations, restarts, learned int64 }

func workOf(b backend) satWork {
	switch s := b.(type) {
	case *sat.Solver:
		return satWork{s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Propagations, s.Stats.Restarts, s.Stats.Learned}
	case *sat.Portfolio:
		var w satWork // WorkerStats has no learned-clause count
		for _, ws := range s.WorkerStats() {
			w.conflicts += ws.Conflicts
			w.decisions += ws.Decisions
			w.propagations += ws.Propagations
			w.restarts += ws.Restarts
		}
		return w
	}
	return satWork{}
}

// replayOut is the replay of one sketch.
type replayOut struct {
	resolved   bool
	cand       desugar.Candidate
	candidates []string
	iterations int
	mcStates   int64
	work       satWork
	wall       time.Duration
	t          tally
}

func log10Count(x *big.Int) float64 {
	if x == nil || x.Sign() <= 0 {
		return 0
	}
	f, _ := new(big.Float).SetInt(x).Float64()
	return math.Log10(f)
}

func countSteps(p *ir.Program) int {
	n := 0
	for _, s := range append([]*ir.Seq{p.GlobalInit, p.Prologue, p.Epilogue}, p.Threads...) {
		if s != nil {
			n += len(s.Steps)
		}
	}
	return n
}

// replay drives core's concurrent CEGIS loop (without the speculative
// pipeline) through each layer's public functions, recording a span
// and the layer's work around every call: solve and read the candidate
// from the hole variables; model check it; project, encode and add
// every counterexample trace; block the candidate if the projection
// did not refute it. The set-up mirrors core.New call for call, so at
// parallelism 1 the solver sees the same clauses in the same order.
func replay(in *sketchInput, parallelism int, tr *tracer, root int) (*replayOut, error) {
	out := &replayOut{t: tally{}}
	t := out.t
	t0 := time.Now()
	sp := tr.start("parser.parse", root)
	prog, err := parser.Parse(in.Src)
	t.add("parser.parse_s", tr.end(sp).Seconds())
	if err != nil {
		return nil, err
	}
	sp = tr.start("desugar.desugar", root)
	sk, err := desugar.Desugar(prog, "Main", in.Opts)
	t.add("desugar.desugar_s", tr.end(sp).Seconds())
	if err != nil {
		return nil, err
	}
	t.add("desugar.holes", float64(len(sk.Holes)))
	t.add("desugar.log10_c", log10Count(sk.Count))
	sp = tr.start("ir.lower", root)
	p, err := ir.Lower(sk)
	var layout *state.Layout
	if err == nil {
		layout, err = state.NewLayout(p)
	}
	t.add("ir.lower_s", tr.end(sp).Seconds())
	if err != nil {
		return nil, err
	}
	if !p.Concurrent() {
		return nil, fmt.Errorf("%s: the replay drives the concurrent loop; the sketch has no fork", in.Name)
	}
	t.add("ir.steps", float64(countSteps(p)))

	sp = tr.start("replay.setup", root)
	b := circuit.NewBuilder()
	holes := sym.HoleInputs(b, sk)
	var raw backend = sat.New()
	if parallelism > 1 {
		raw = sat.NewPortfolio(parallelism) // sharing on, as in core
	}
	s := &countingBackend{backend: raw}
	vmap := circuit.NewVarMap()
	holeVars := make([][]int, len(holes))
	for i, w := range holes {
		for _, inLit := range w {
			holeVars[i] = append(holeVars[i], b.SATVar(s, vmap, inLit))
		}
	}
	ev := sym.New(b, layout, holes)
	for _, c := range sk.Constraints {
		s.AddClause(b.ToSAT(s, vmap, ev.EvalConstraint(c)))
	}
	if err := ev.Err(); err != nil {
		return nil, err
	}
	for i, m := range sk.Holes {
		if m.Kind != desugar.HoleChoice {
			continue
		}
		valid := circuit.False
		for k := 0; k < m.Choices; k++ {
			valid = b.Or(valid, b.EqW(holes[i], circuit.ConstW(m.Bits, int64(k))))
		}
		s.AddClause(b.ToSAT(s, vmap, valid))
	}
	tr.end(sp)

	// timed runs f inside a span and tallies its duration and heap
	// allocation under the given keys.
	timed := func(name string, parent int, durKey, allocKey string, f func()) time.Duration {
		sp := tr.start(name, parent)
		a0 := allocMiB()
		f()
		d := tr.end(sp)
		t.add(durKey, d.Seconds())
		if allocKey != "" {
			t.add(allocKey, allocMiB()-a0)
		}
		return d
	}
	var cache *project.Cache
	timed("project.new_cache", root, "project.encode_s", "project.encode_alloc_mib", func() {
		cache = project.NewCache(b, layout, holes)
	})
	assignment := func(cand desugar.Candidate) map[circuit.Lit]bool {
		m := map[circuit.Lit]bool{}
		for i, w := range holes {
			for j, inLit := range w {
				m[inLit] = (cand.Value(i)>>uint(j))&1 == 1
			}
		}
		return m
	}
	const maxIterations = 256 // core's default
	converged := false
	for iter := 1; iter <= maxIterations && !converged; iter++ {
		out.iterations = iter
		isp := tr.start("cegis.iteration", root)
		var ok bool
		d := timed("sat.solve", isp, "sat.solve_s", "sat.alloc_mib", func() { ok = s.Solve() })
		t.add("sat.max_solve_s", d.Seconds())
		t.add("sat.solves", 1)
		if !ok {
			tr.end(isp)
			converged = true
			break
		}
		cand := make(desugar.Candidate, len(holeVars))
		for i, vars := range holeVars {
			for j, v := range vars {
				if s.Value(v) {
					cand[i] |= 1 << uint(j)
				}
			}
		}
		out.candidates = append(out.candidates, fmt.Sprint(cand))

		var mres *mc.Result
		timed("mc.check", isp, "mc.check_s", "mc.alloc_mib", func() {
			mres, err = mc.Check(layout, cand, mc.Options{MaxStates: in.MCMaxStates, MaxTraces: 1, Parallelism: parallelism})
		})
		if err != nil {
			tr.end(isp)
			return nil, fmt.Errorf("%s: mc.Check: %w", in.Name, err)
		}
		t.add("mc.checks", 1)
		t.add("mc.states", float64(mres.States))
		t.add("mc.transitions", float64(mres.Trans))
		t.add("mc.visited_mib", float64(mres.VisitedBytes)/(1<<20))
		for i, n := range mres.WorkerStates {
			t.add(fmt.Sprintf("_mc_worker_states.%d", i), float64(n))
		}
		out.mcStates += int64(mres.States)
		if mres.OK {
			out.resolved, out.cand = true, cand
			tr.end(isp)
			converged = true
			break
		}
		t.add("mc.cex_checks", 1)

		candAsn := assignment(cand)
		refuted := false
		for _, trace := range mres.Traces {
			var entries []project.Entry
			timed("project.build", isp, "project.build_s", "", func() { entries = project.Build(p, trace) })
			t.add("project.traces", 1)
			t.add("project.entries", float64(len(entries)))
			var failLit circuit.Lit
			timed("project.encode", isp, "project.encode_s", "project.encode_alloc_mib", func() {
				failLit, err = cache.Encode(entries)
			})
			if err != nil {
				tr.end(isp)
				return nil, fmt.Errorf("%s: project encode: %w", in.Name, err)
			}
			timed("circuit.tosat", isp, "circuit.tosat_s", "", func() {
				s.AddClause(b.ToSAT(s, vmap, failLit.Not()))
			})
			if b.Eval(candAsn, failLit) {
				refuted = true
			}
		}
		if !refuted {
			var block []sat.Lit
			for i, vars := range holeVars {
				for j, v := range vars {
					block = append(block, sat.MkLit(v, (cand.Value(i)>>uint(j))&1 == 1))
				}
			}
			s.AddClause(block...)
		}
		tr.end(isp)
	}
	if !converged {
		return nil, fmt.Errorf("%s: replay did not converge after %d iterations", in.Name, maxIterations)
	}
	out.wall = time.Since(t0)
	out.work = workOf(raw)
	t.add("sat.conflicts", float64(out.work.conflicts))
	t.add("sat.decisions", float64(out.work.decisions))
	t.add("sat.propagations", float64(out.work.propagations))
	t.add("sat.restarts", float64(out.work.restarts))
	t.add("sat.learned", float64(out.work.learned))
	t.add("sat.vars", float64(s.NumVars()))
	t.add("sat.clauses", float64(s.NumClauses()))
	t.add("project.cache_hits", float64(cache.Hits))
	t.add("project.cache_misses", float64(cache.Misses))
	t.add("circuit.nodes", float64(b.NumNodes()))
	t.add("circuit.clauses_added", float64(s.clauses))
	if pf, ok := raw.(*sat.Portfolio); ok {
		for i, ws := range pf.WorkerStats() {
			t.add(fmt.Sprintf("_sat_wins.%d", i), float64(ws.Wins))
			t.add("_sat_exported", float64(ws.Exported))
			t.add("_sat_imported", float64(ws.Imported))
		}
	}
	return out, nil
}

// runTraced measures the per-layer metrics. For every sketch it runs
// core as users do (with a private metrics registry, recording the
// candidates core reports), then replays the same loop layer by layer.
// At parallelism 1 the replay must reproduce core exactly: the same
// candidate sequence, iterations, model-checker states and SAT
// conflicts.
func runTraced(ins []sketchInput, parallelism int, budget time.Duration, spansPath string, log io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(why string) {
		res.Correct = false
		fmt.Fprintln(log, "FAIL", why)
	}
	tr := &tracer{epoch: time.Now()}
	v := newVerifier(log)
	det := determinism{}
	var passes []tally
	start := time.Now()
	for pass := 1; pass == 1 || time.Since(start) < budget; pass++ {
		pt := tally{}
		for i := range ins {
			in := &ins[i]
			tr.req = fmt.Sprintf("%s#%d", in.Name, pass)
			res.Attempted++
			var cands []string
			runtime.GC()
			gc0 := gcCPU()
			sp := tr.start("core.synthesize", 0)
			cs := synthesize(in, parallelism, candidateRecorder(&cands))
			tr.end(sp)
			pt.add("go.gc_cpu_s", gcCPU()-gc0)
			if why := cs.failure(v); why != "" {
				res.Failed++
				fail(why)
				continue
			}
			st := cs.res.Stats
			pt.add("core.new_s", cs.newDur.Seconds())
			pt.add("core.solve_s", (cs.engine - cs.newDur).Seconds())
			pt.add("core.iterations", float64(st.Iterations))
			pt.add("_spec_hits", float64(st.SpecHits))
			pt.add("_spec_solves", float64(st.SpecSolves))

			runtime.GC()
			sp = tr.start("replay", 0)
			r, err := replay(in, parallelism, tr, sp)
			tr.end(sp)
			if err == nil {
				if why := v.check(in, r.resolved, r.cand); why != "" {
					err = fmt.Errorf("replay: %s", why)
				}
			}
			if err == nil && parallelism == 1 {
				err = sameTrajectory(cands, st, r)
			}
			if err != nil {
				res.Failed++
				fail(fmt.Sprintf("%s: %v", in.Name, err))
				continue
			}
			overhead := r.wall - cs.verdict
			pt.add("trace.overhead_s", overhead.Seconds())
			pt.merge(r.t)
			fmt.Fprintf(log, "pass %d %-24s core %8.3fs replay %8.3fs overhead %+.3fs itns %3d\n",
				pass, in.Name, cs.verdict.Seconds(), r.wall.Seconds(), overhead.Seconds(), r.iterations)
			if parallelism == 1 {
				for _, why := range det.check(in.Name, map[string]int64{
					"iterations":            int64(r.iterations),
					"sat.conflicts":         r.work.conflicts,
					"sat.propagations":      r.work.propagations,
					"mc.states":             r.mcStates,
					"circuit.clauses_added": int64(r.t["circuit.clauses_added"]),
				}) {
					fail(why)
				}
			}
		}
		pt.finish()
		passes = append(passes, pt)
	}
	if err := tr.write(spansPath); err != nil {
		fmt.Fprintln(log, "perfbench: writing spans:", err)
	}
	for name, unit := range perLayerUnits {
		var vals []float64
		for _, pt := range passes {
			vals = append(vals, pt[name])
		}
		res.Metrics[name] = metric{Value: median(vals), Unit: unit}
	}
	return res
}

// candidateRecorder is a core.Options.Verbose hook that records each
// candidate core reports it is about to model check.
func candidateRecorder(cands *[]string) func(string, ...any) {
	return func(format string, args ...any) {
		if strings.HasPrefix(format, "iteration %d: model checking candidate") && len(args) == 2 {
			*cands = append(*cands, fmt.Sprint(args[1]))
		}
	}
}

// sameTrajectory reports how a parallelism-1 replay departs from core's
// own run of the same sketch, or nil when it reproduces it.
func sameTrajectory(coreCands []string, st core.Stats, r *replayOut) error {
	var diffs []string
	if strings.Join(coreCands, " ") != strings.Join(r.candidates, " ") {
		diffs = append(diffs, fmt.Sprintf("candidates core %v, replay %v", coreCands, r.candidates))
	}
	if st.Iterations != r.iterations {
		diffs = append(diffs, fmt.Sprintf("iterations core %d, replay %d", st.Iterations, r.iterations))
	}
	if int64(st.MCStates) != r.mcStates {
		diffs = append(diffs, fmt.Sprintf("mc.states core %d, replay %d", st.MCStates, r.mcStates))
	}
	if st.SATConfl != r.work.conflicts {
		diffs = append(diffs, fmt.Sprintf("sat.conflicts core %d, replay %d", st.SATConfl, r.work.conflicts))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("replay departs from core: %s", strings.Join(diffs, "; "))
	}
	return nil
}
