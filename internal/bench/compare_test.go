package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func mustJSON(t *testing.T, rep jsonReport) []byte {
	t.Helper()
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func report(rows ...jsonRow) jsonReport {
	var rep jsonReport
	rep.Options.Parallelism = 4
	rep.Options.ShareClauses = true
	rep.Options.POR = true
	rep.Options.TracesPerIteration = 1
	rep.Rows = rows
	return rep
}

func row(bench, test string, resolved bool, totalMS float64) jsonRow {
	return jsonRow{Bench: bench, Test: test, Resolved: resolved, Expected: resolved, TotalMS: totalMS}
}

func TestGatePasses(t *testing.T) {
	base := report(row("queueE1", "ed(ed|ed)", true, 40), row("lazyset", "ar(ar|ar)", false, 1200))
	cand := report(row("queueE1", "ed(ed|ed)", true, 90), row("lazyset", "ar(ar|ar)", false, 2400))
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("gate failed: %v", g.Failures)
	}
	if g.Compared != 2 {
		t.Fatalf("compared %d rows, want 2", g.Compared)
	}
}

func TestGateVerdictFlipFails(t *testing.T) {
	base := report(row("lazyset", "ar(ar|ar)", false, 1200))
	cand := base
	cand.Rows = []jsonRow{{Bench: "lazyset", Test: "ar(ar|ar)", Resolved: true, Expected: false, TotalMS: 100}}
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() || !strings.Contains(g.Failures[0], "expects") {
		t.Fatalf("verdict flip not caught: %+v", g)
	}
}

func TestGateBaselineDisagreementFails(t *testing.T) {
	// Candidate agrees with its own Expected but not with the baseline
	// verdict — the benchmark table changed out from under the gate.
	base := report(row("lazyset", "ar(ar|ar)", false, 1200))
	cand := report(jsonRow{Bench: "lazyset", Test: "ar(ar|ar)", Resolved: true, Expected: true, TotalMS: 100})
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() || !strings.Contains(g.Failures[0], "baseline resolved") {
		t.Fatalf("baseline disagreement not caught: %+v", g)
	}
}

func TestGateErrorFails(t *testing.T) {
	base := report(row("barrier1", "N=3,B=2", true, 50))
	cand := report(jsonRow{Bench: "barrier1", Test: "N=3,B=2", Error: "timeout after 10m"})
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() || !strings.Contains(g.Failures[0], "errored") {
		t.Fatalf("errored row not caught: %+v", g)
	}
}

func TestGateSlowdownFailsAboveToleranceOnly(t *testing.T) {
	base := report(row("fineset1", "ar(ar|ar)", true, 1000))
	slow := report(row("fineset1", "ar(ar|ar)", true, 3500))
	g, err := Gate(mustJSON(t, base), mustJSON(t, slow), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("3.5x slowdown passed a 3x gate")
	}
	ok := report(row("fineset1", "ar(ar|ar)", true, 2900))
	if g, err = Gate(mustJSON(t, base), mustJSON(t, ok), GateOptions{}); err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("2.9x slowdown failed a 3x gate: %v", g.Failures)
	}
}

func TestGateNoiseFloor(t *testing.T) {
	// 20x regression on a 5ms row is scheduler noise, not a regression.
	base := report(row("queueE1", "ed(ed|ed)", true, 5))
	cand := report(row("queueE1", "ed(ed|ed)", true, 100))
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("sub-floor row failed the gate: %v", g.Failures)
	}
	// ...but an explicit tighter floor catches it.
	if g, err = Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{MinMS: 50}); err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("50ms floor did not catch a 20x regression at 100ms")
	}
}

func TestGateMissingRow(t *testing.T) {
	base := report(row("queueE1", "ed(ed|ed)", true, 40), row("barrier1", "N=3,B=2", true, 50))
	cand := report(row("queueE1", "ed(ed|ed)", true, 40))
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() || !strings.Contains(g.Failures[0], "missing from candidate") {
		t.Fatalf("missing row not caught: %+v", g)
	}
	// A filtered candidate sweep legitimately covers a subset.
	cand.Options.Filter = "queue"
	if g, err = Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{}); err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("filtered subset failed the gate: %v", g.Failures)
	}
}

func TestGateConfigSkewWarns(t *testing.T) {
	base := report(row("queueE1", "ed(ed|ed)", true, 40))
	cand := report(row("queueE1", "ed(ed|ed)", true, 40))
	cand.Options.Parallelism = 1
	cand.Options.Proof = true
	g, err := Gate(mustJSON(t, base), mustJSON(t, cand), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("config skew must warn, not fail: %v", g.Failures)
	}
	if len(g.Warnings) < 2 {
		t.Fatalf("expected parallelism + proof warnings, got %v", g.Warnings)
	}
}

// TestGateAcceptsCheckedInBaseline pins the gate to the real artifact
// CI compares against: BENCH_pr3.json must parse, self-compare clean,
// and tolerate its own lack of the newer host-configuration fields.
func TestGateAcceptsCheckedInBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pr3.json")
	if err != nil {
		t.Skipf("baseline not present: %v", err)
	}
	g, err := Gate(data, data, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("baseline does not self-compare: %v", g.Failures)
	}
	if len(g.Warnings) != 0 {
		t.Fatalf("self-comparison warned: %v", g.Warnings)
	}
	if g.Compared == 0 {
		t.Fatal("no rows compared against the checked-in baseline")
	}
}

// TestGateAcceptsBaselineWithRemovedKeys pins CI's benchgate step:
// BENCH_pr7.json still carries the removed thread-symmetry keys (the
// header's symmetry field, the rows' mc_sym_classes and mc_orbit_hits),
// and a report written today has none of them. The gate must compare
// the two clean, without a config-skew warning.
func TestGateAcceptsBaselineWithRemovedKeys(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pr7.json")
	if err != nil {
		t.Skipf("baseline not present: %v", err)
	}
	for _, key := range []string{`"symmetry"`, `"mc_sym_classes"`, `"mc_orbit_hits"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("BENCH_pr7.json no longer has %s; this test has nothing to check", key)
		}
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	cand := mustJSON(t, rep)
	if strings.Contains(string(cand), "sym") || strings.Contains(string(cand), "orbit") {
		t.Fatalf("a current report still writes a symmetry key: %s", cand)
	}
	g, err := Gate(data, cand, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() || len(g.Warnings) != 0 {
		t.Fatalf("gate vs BENCH_pr7.json: failures %v, warnings %v", g.Failures, g.Warnings)
	}
	if g.Compared == 0 {
		t.Fatal("no rows compared against BENCH_pr7.json")
	}
}

// journalFor builds a minimal run journal: one bench.run root per
// entry plus phase-tagged engine spans whose durations scale with the
// run's wall clock.
func journalFor(runs ...journalRun) []byte {
	var b strings.Builder
	b.WriteString(`{"psketch_journal":1,"meta":{"cmd":"pskbench","parallelism":"4"}}` + "\n")
	id := 0
	for _, r := range runs {
		id++
		root := id
		fmt.Fprintf(&b, `{"name":"bench.run","id":%d,"start_ns":%d,"dur_ns":%d,"attrs":{"bench":%q,"test":%q,"status":%q}}`+"\n",
			root, root*1000, r.ns, r.bench, r.test, r.status)
		id++
		fmt.Fprintf(&b, `{"name":"cegis.verify","id":%d,"parent":%d,"start_ns":%d,"dur_ns":%d,"attrs":{"phase":"vsolve"}}`+"\n",
			id, root, root*1000+1, r.ns*3/4)
		id++
		fmt.Fprintf(&b, `{"name":"cegis.solve","id":%d,"parent":%d,"start_ns":%d,"dur_ns":%d,"attrs":{"phase":"ssolve"}}`+"\n",
			id, root, root*1000+2, r.ns/4)
	}
	return []byte(b.String())
}

type journalRun struct {
	bench, test, status string
	ns                  int64
}

func TestGateJournalsPasses(t *testing.T) {
	base := journalFor(journalRun{"queueE1", "ed(ed|ed)", "done", 400e6})
	cand := journalFor(journalRun{"queueE1", "ed(ed|ed)", "done", 900e6})
	g, err := GateJournals(base, cand, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("gate failed: %v", g.Failures)
	}
	if g.Compared == 0 {
		t.Fatal("nothing compared")
	}
}

func TestGateJournalsCatchesRunRegression(t *testing.T) {
	base := journalFor(journalRun{"queueE1", "ed(ed|ed)", "done", 400e6})
	cand := journalFor(journalRun{"queueE1", "ed(ed|ed)", "done", 1300e6})
	g, err := GateJournals(base, cand, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("3.25x slowdown must fail the default 3x gate")
	}
	if !strings.Contains(g.Failures[0], "queueE1/ed(ed|ed)") {
		t.Fatalf("failure not attributed to the run: %v", g.Failures)
	}
}

// TestGateJournalsCatchesPhaseRegression is the case the -json gate
// cannot see: end-to-end time within tolerance, but one engine phase
// regressed past it.
func TestGateJournalsCatchesPhaseRegression(t *testing.T) {
	base := journalFor(journalRun{"queueE1", "ed(ed|ed)", "done", 400e6})
	// Same wall clock, but verification time quadrupled (solve shrank).
	cand := []byte(`{"psketch_journal":1,"meta":{"cmd":"pskbench","parallelism":"4"}}
{"name":"bench.run","id":1,"start_ns":1000,"dur_ns":400000000,"attrs":{"bench":"queueE1","test":"ed(ed|ed)","status":"done"}}
{"name":"cegis.verify","id":2,"parent":1,"start_ns":1001,"dur_ns":1200000000,"attrs":{"phase":"vsolve"}}
{"name":"cegis.solve","id":3,"parent":1,"start_ns":1002,"dur_ns":100000,"attrs":{"phase":"ssolve"}}
`)
	g, err := GateJournals(base, cand, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("4x vsolve regression must fail even with total in tolerance")
	}
	if !strings.Contains(strings.Join(g.Failures, "\n"), "phase vsolve") {
		t.Fatalf("failure not attributed to the phase: %v", g.Failures)
	}
}

func TestGateJournalsErroredRunFails(t *testing.T) {
	base := journalFor(journalRun{"queueE1", "ed(ed|ed)", "done", 400e6})
	cand := journalFor(journalRun{"queueE1", "ed(ed|ed)", "timeout", 400e6})
	g, err := GateJournals(base, cand, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() || !strings.Contains(g.Failures[0], "timeout") {
		t.Fatalf("errored run not caught: %+v", g)
	}
}

func TestGateJournalsBadInput(t *testing.T) {
	if _, err := GateJournals([]byte("not json"), []byte("not json"), GateOptions{}); err == nil {
		t.Fatal("garbage journals must error")
	}
}
