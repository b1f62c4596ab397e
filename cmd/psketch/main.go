// Command psketch synthesizes a sketch file:
//
//	psketch [flags] file.psk
//
// The target defaults to the single harness (or implements) function in
// the file; -target overrides. On success the resolved program is
// printed (holes filled, chosen statement order restored); if the
// sketch cannot be completed the exit status is 2 and the tool prints
// NO, as PSKETCH did for the lazyset benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"psketch"
	"psketch/internal/obs"
)

func main() {
	var (
		target    = flag.String("target", "", "harness/implements function to synthesize (default: autodetect)")
		intWidth  = flag.Int("intwidth", 5, "bit width of int values")
		holeWidth = flag.Int("holewidth", 3, "default bit width of ?? holes")
		loopBound = flag.Int("loopbound", 4, "while-loop unroll bound")
		maxRepeat = flag.Int("maxrepeat", 8, "repeat(??) bound")
		quadratic = flag.Bool("quadratic", false, "use the quadratic reorder encoding (default: insertion)")
		maxStates = flag.Int("maxstates", 0, "model-checker state budget (0 = default)")
		verbose   = flag.Bool("v", false, "per-iteration progress")
		showCount = flag.Bool("count", false, "print |C| and exit")
		all       = flag.Int("all", 0, "enumerate up to N distinct solutions (0 = first only)")
		traces    = flag.Int("traces", 1, "counterexample traces per CEGIS iteration")
		par       = flag.Int("j", runtime.GOMAXPROCS(0), "solver/verifier parallelism (1 = deterministic)")
		share     = flag.Bool("share-clauses", true, "share learned clauses between SAT portfolio workers (needs -j > 1)")
		proof     = flag.Bool("proofcheck", false, "log DRAT proofs and replay every UNSAT verdict through the backward checker")
		journal   = flag.String("journal", "", "write a structured run journal (JSONL) to this file; inspect with psktrace")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics and /debug/pprof on this address")
		cubes     = flag.Int("cubes", 0, "split the candidate space into N cubes and race them (cube-and-conquer; 0/1 = off)")
		cubeWork  = flag.Int("cube-workers", 0, "concurrent cube engines under -cubes (0 = one per cube)")
		serve     = flag.String("serve-cubes", "", "coordinate a multi-process cube run on this address (e.g. 127.0.0.1:7331); pair with psketch -join")
		serveLoc  = flag.Int("serve-local", 1, "in-process cube engines the -serve-cubes coordinator runs alongside joiners")
		join      = flag.String("join", "", "join a -serve-cubes coordinator at this address and run cubes it hands out (no file argument)")
		emitDir   = flag.String("emit-dir", "", "enumerate all verified candidates and emit each as a compilable Go package under this directory")
		rank      = flag.Bool("rank", false, "with -emit-dir: go build each emitted candidate, run its load harness, and order candidates by measured ops/sec")
		maxSol    = flag.Int("max-solutions", 8, "enumerate-all bound for -emit-dir (block verified candidates and re-solve until UNSAT or N solutions)")
	)
	flag.Parse()
	if *join != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: psketch -join host:port (the sketch arrives over the wire)")
			os.Exit(1)
		}
		vf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		if err := psketch.JoinCubes(*join, vf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psketch [flags] file.psk")
		os.Exit(1)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Observability: -journal traces the whole run to JSONL (psktrace
	// renders it), -debug-addr serves the same counters live.
	met := obs.NewMetrics()
	var (
		tr *obs.Tracer
		js *obs.JournalSink
		jf *os.File
	)
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
			os.Exit(1)
		}
		jf = f
		js = obs.NewJournalSink(f, map[string]string{
			"cmd":         "psketch",
			"file":        flag.Arg(0),
			"parallelism": strconv.Itoa(*par),
			"goos":        runtime.GOOS,
		})
		tr = obs.NewTracer(js)
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, met)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug-addr:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "psketch: live /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	// exit finishes the journal (metrics trailer + flush) first, since
	// os.Exit skips deferred calls.
	exit := func(code int) {
		if js != nil {
			js.WriteMetrics(met.Snapshot())
			if err := js.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "journal:", err)
			}
			jf.Close()
			fmt.Fprintf(os.Stderr, "wrote journal to %s\n", *journal)
		}
		os.Exit(code)
	}
	opts := psketch.Options{
		IntWidth:           *intWidth,
		HoleWidth:          *holeWidth,
		LoopBound:          *loopBound,
		MaxRepeat:          *maxRepeat,
		MCMaxStates:        *maxStates,
		TracesPerIteration: *traces,
		MaxSolutions:       *maxSol,
		Parallelism:        *par,
		NoShareClauses:     !*share,
		Proof:              *proof,
		Cubes:              *cubes,
		CubeWorkers:        *cubeWork,
		Trace:              tr,
		Metrics:            met,
	}
	if *quadratic {
		opts.Encoding = psketch.EncodeQuadratic
	}
	if *verbose {
		opts.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	tgt := *target
	if tgt == "" {
		tgt, err = autodetectTarget(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	sk, err := psketch.Compile(string(src), tgt, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if *showCount {
		fmt.Printf("|C| = %s\n", sk.CandidateCount())
		exit(0)
	}
	if *all > 0 {
		rs, err := sk.Enumerate(*all)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if len(rs) == 0 {
			fmt.Println("NO — the sketch cannot be resolved")
			exit(2)
		}
		seen := map[string]bool{}
		n := 0
		for _, r := range rs {
			if seen[r.Code] {
				continue
			}
			seen[r.Code] = true
			n++
			fmt.Printf("// ---- solution %d (%d iteration(s)) ----\n\n%s\n", n, r.Stats.Iterations, r.Code)
		}
		exit(0)
	}
	if *emitDir != "" {
		code := runEmit(sk, *emitDir, *rank)
		exit(code)
	}
	var res *psketch.Result
	if *serve != "" {
		if opts.Cubes < 2 {
			opts.Cubes = 2 // serving implies a split; default to the minimum
		}
		res, err = psketch.ServeCubes(*serve, string(src), tgt, *serveLoc, opts)
	} else {
		res, err = sk.Synthesize()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if res.Cube != nil && *verbose {
		for _, pc := range res.Cube.PerCube {
			fmt.Fprintf(os.Stderr, "cube %d: resolved=%v exhausted=%v canceled=%v remote=%v stolen=%v iters=%d remote_traces=%d\n",
				pc.ID, pc.Resolved, pc.Exhausted, pc.Canceled, pc.Remote, pc.Stolen,
				pc.Stats.Iterations, pc.RemoteTraces)
		}
	}
	if !res.Resolved {
		fmt.Println("NO — the sketch cannot be resolved")
		if res.Certificate != nil {
			fmt.Printf("// DRAT-certified: %d premises, %d lemmas replayed\n",
				res.Certificate.NumPremises(), res.Certificate.NumLemmas())
		}
		exit(2)
	}
	fmt.Printf("// resolved in %d iteration(s), %v\n\n", res.Stats.Iterations, res.Stats.Total.Round(1000000))
	fmt.Print(res.Code)
	exit(0)
}

func autodetectTarget(src string) (string, error) {
	return psketch.DetectTarget(src)
}

// runEmit drives the -emit-dir pipeline: enumerate all verified
// candidates, lower each distinct one to a Go package under dir, and
// (with -rank) order them by measured throughput. Returns the exit
// code.
func runEmit(sk *psketch.Sketch, dir string, rank bool) int {
	if rank {
		rs, ms, err := sk.SynthesizeRanked(dir, psketch.RankOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(rs) == 0 {
			fmt.Println("NO — the sketch cannot be resolved")
			return 2
		}
		fmt.Printf("// %d distinct verified candidate(s) emitted under %s, ranked by measured ops/sec\n", len(rs), dir)
		for i, m := range ms {
			if m.Err != "" {
				fmt.Printf("// #%d %s: FAILED (%s)\n", i+1, m.Dir, m.Err)
				continue
			}
			fmt.Printf("// #%d %s: %.0f ops/sec (%d ops, build %dms)\n", i+1, m.Dir, m.OpsPerSec, m.Ops, m.BuildMS)
		}
		fmt.Printf("\n// ---- fastest candidate ----\n\n%s", rs[0].Code)
		return 0
	}
	rs, dirs, err := sk.SynthesizeEmit(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(rs) == 0 {
		fmt.Println("NO — the sketch cannot be resolved")
		return 2
	}
	fmt.Printf("// %d distinct verified candidate(s) emitted under %s\n", len(rs), dir)
	for i, d := range dirs {
		fmt.Printf("// %s (%d iteration(s))\n", d, rs[i].Stats.Iterations)
	}
	return 0
}
