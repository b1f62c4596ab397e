// Command perfbench is psketch's benchmark: time from a Figure 9 sketch
// to a checked verdict, end to end (untraced run) and layer by layer
// (traced run). Each workload runs as a closed loop with one client in
// one process: the next sketch starts only after the previous verdict
// has been returned. run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload sat-tail --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. NOTES.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists the untraced run's metrics.
var endToEndUnits = map[string]string{
	"total_s":           "s",
	"verdict_s_geomean": "s",
	"setup_s":           "s",
	"cpu_s":             "s",
	"peak_rss_mib":      "MiB",
	"iterations":        "count",
	"verdicts_ok":       "ratio",
}

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed: picks the order of the workload's sketches")
	seconds := flag.Int("seconds", 20, "measure for this long (at least one pass)")
	trace := flag.Int("trace", 0, "1 runs the traced layer replay instead of the end-to-end run")
	spans := flag.String("spans", "", "traced run: write spans as JSONL here (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	ins, err := w.inputs(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printHeader(w, ins, *seed, *seconds, *trace)
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.Name, *seed)
		}
		res = runTraced(ins, w.Parallelism, budget, path, os.Stderr)
	} else {
		res = runUntraced(ins, w.Parallelism, budget, os.Stderr)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// engineConfig is the effective configuration core runs with: the
// pipeline and clause sharing exist only at parallelism > 1, so they
// are reported on only there.
type engineConfig struct {
	Parallelism  int  `json:"parallelism"`
	Pipeline     bool `json:"pipeline"`
	ShareClauses bool `json:"share_clauses"`
	POR          bool `json:"por"`
	Symmetry     bool `json:"symmetry"`
}

func effectiveConfig(parallelism int) engineConfig {
	return engineConfig{
		Parallelism:  parallelism,
		Pipeline:     parallelism > 1,
		ShareClauses: parallelism > 1,
		POR:          true,
		Symmetry:     true,
	}
}

// printHeader records the host, seed and engine configuration ahead of
// the result line.
func printHeader(w workload, ins []sketchInput, seed int64, seconds, trace int) {
	order := make([]string, len(ins))
	for i, in := range ins {
		order[i] = in.Name
	}
	h := map[string]any{
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		"workload": w.Name,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    trace,
		"engine":   effectiveConfig(w.Parallelism),
		"order":    order,
	}
	out, _ := json.Marshal(map[string]any{"perfbench": h}) // plain maps and structs always marshal
	fmt.Println(string(out))
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the operating system and restarts
// Linux's peak-RSS counter, so that peakRSSMiB covers only what runs
// next. Where the counter cannot be reset, peakRSSMiB reports the
// process's peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the peak resident set size since resetPeakRSS.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kib, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
