package main

import (
	"fmt"
	"math/rand"
	"strings"

	"psketch/internal/desugar"
	"psketch/internal/sketches"
)

// sketchRef names one Figure 9 test and the verdict the paper reports
// for it (its "resolvable" column).
type sketchRef struct {
	Bench, Test string
	Want        bool
}

// workload is one fixed set of Figure 9 sketches run as a closed loop
// with one client, on one engine configuration. NOTES.md says why each
// was chosen.
type workload struct {
	Name        string
	Parallelism int
	Sketches    []sketchRef
}

var workloads = []workload{
	{Name: "sat-tail", Parallelism: 1, Sketches: []sketchRef{
		{"queueDE2", "ed(ed|ed)", true},
		{"dinphilo", "N=4,T=3", true},
		{"lazyset", "ar(ar|ar)", false},
	}},
	{Name: "encode-heavy", Parallelism: 1, Sketches: []sketchRef{
		{"fineset2", "ar(arar|arar)", true},
		{"fineset2", "ar(ar|ar|ar)", true},
		{"fineset1", "ar(arar|arar)", true},
	}},
	{Name: "mc-heavy", Parallelism: 1, Sketches: []sketchRef{
		{"dinphilo", "N=5,T=3", true},
		{"fineset2", "ar(aaaa|rrrr)", true},
	}},
	// parallel is not listed in BENCHMARK.json: the portfolio race makes
	// its timings too unsteady to gate on (NOTES.md).
	{Name: "parallel", Parallelism: 2, Sketches: []sketchRef{
		{"queueDE2", "ed(ed|ed)", true},
		{"dinphilo", "N=4,T=3", true},
		{"lazyset", "ar(ar|ar)", false},
		{"dinphilo", "N=5,T=3", true},
		{"fineset2", "ar(ar|ar|ar)", true},
	}},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// recheck names the independent checker a resolved candidate must pass.
type recheck int

const (
	// recheckOracle is oracle.CheckExhaustive: the naive reference
	// checker, without POR or symmetry, on a 1,000,000-state budget.
	recheckOracle recheck = iota
	// recheckNoReduction is mc.Check with POR and symmetry off.
	recheckNoReduction
	// recheckNoSymmetry is mc.Check with symmetry off, POR on.
	recheckNoSymmetry
)

// sketchInput is everything one synthesis needs: the sketch source, its
// bounded-machine options, the model checker's state budget, the
// expected verdict and how a resolved candidate is re-checked.
type sketchInput struct {
	Name        string
	Src         string
	Opts        desugar.Options
	MCMaxStates int
	Want        bool
	Recheck     recheck
}

// loadInput builds the sketch source of one Figure 9 test. The state
// budget follows pskbench: dinphilo N=5 needs more than core's default.
// The naive oracle cannot check dinphilo candidates: it exceeds its
// budget on N=4 (a second mc.Check without reductions takes about 1 s)
// and does not finish N=5 in minutes (without reductions mc.Check
// takes about 35 s; with POR kept, 4 s).
func loadInput(ref sketchRef) (sketchInput, error) {
	for _, b := range sketches.All() {
		if b.Name != ref.Bench {
			continue
		}
		src, err := b.Source(ref.Test)
		if err != nil {
			return sketchInput{}, fmt.Errorf("%s:%s: %w", ref.Bench, ref.Test, err)
		}
		in := sketchInput{Name: ref.Bench + ":" + ref.Test, Src: src, Opts: b.Opts(ref.Test), Want: ref.Want}
		switch {
		case ref.Bench == "dinphilo" && strings.HasPrefix(ref.Test, "N=5"):
			in.MCMaxStates = 60_000_000
			in.Recheck = recheckNoSymmetry
		case ref.Bench == "dinphilo":
			in.Recheck = recheckNoReduction
		}
		return in, nil
	}
	return sketchInput{}, fmt.Errorf("unknown benchmark %q", ref.Bench)
}

// inputs loads the workload's sketches in the order the seed picks.
func (w workload) inputs(seed int64) ([]sketchInput, error) {
	ins := make([]sketchInput, 0, len(w.Sketches))
	for _, ref := range w.Sketches {
		in, err := loadInput(ref)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins, nil
}
