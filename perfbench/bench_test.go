package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testInputs are two small concurrent sketches: queueE1 from Figure 9
// and the repository's counter example.
func testInputs(t *testing.T) []sketchInput {
	t.Helper()
	q, err := loadInput(sketchRef{"queueE1", "ed(ed|ed)", true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../testdata/counter.psk")
	if err != nil {
		t.Fatal(err)
	}
	return []sketchInput{q, {Name: "counter.psk", Src: string(src), Want: true}}
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkResult fails unless res is a correct result that emits exactly
// the declared metrics, each with its declared unit.
func checkResult(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(want) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not declared", name)
		}
	}
}

func TestUntracedRunEmitsEndToEndMetrics(t *testing.T) {
	res := runUntraced(testInputs(t), 1, 0, logWriter{t})
	checkResult(t, res, declared(t, "end_to_end"))
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
	if v := res.Metrics["verdicts_ok"].Value; v != 1 {
		t.Errorf("verdicts_ok = %v, want 1", v)
	}
}

func TestTracedRunEmitsLayerMetrics(t *testing.T) {
	for _, parallelism := range []int{1, 2} {
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		res := runTraced(testInputs(t), parallelism, 0, spans, logWriter{t})
		checkResult(t, res, declared(t, "per_layer"))
		if res.Metrics["sat.solves"].Value < 2 || res.Metrics["mc.checks"].Value < 2 {
			t.Errorf("j=%d: replay made %v solves and %v checks, want at least one each per sketch",
				parallelism, res.Metrics["sat.solves"].Value, res.Metrics["mc.checks"].Value)
		}
		if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
			t.Errorf("j=%d: spans not written: %v", parallelism, err)
		}
	}
}

// TestReplayEqualityAssertion checks that the parallelism-1 replay
// reproduces core's run, and that the assertion notices a departure.
func TestReplayEqualityAssertion(t *testing.T) {
	for _, in := range testInputs(t) {
		var cands []string
		s := synthesize(&in, 1, candidateRecorder(&cands))
		if s.err != nil {
			t.Fatal(s.err)
		}
		r, err := replay(&in, 1, &tracer{epoch: time.Now()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTrajectory(cands, s.res.Stats, r); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		r.work.conflicts++
		r.candidates = append(r.candidates, "[9]")
		err = sameTrajectory(cands, s.res.Stats, r)
		if err == nil || !strings.Contains(err.Error(), "sat.conflicts") || !strings.Contains(err.Error(), "candidates") {
			t.Fatalf("%s: perturbed replay not reported: %v", in.Name, err)
		}
	}
}
