package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"psketch/internal/obs"
	"psketch/internal/sketches"
)

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"queueE1", "queueE2", "1975680", "dinphilo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// The asserted iteration count is the sequential engine's trajectory,
// so the test pins Parallelism 1 instead of the GOMAXPROCS default.
func TestRunOneQueueE1(t *testing.T) {
	row := RunOne(sketches.QueueE1(), "ed(ee|dd)", Options{Timeout: 2 * time.Minute, Parallelism: 1})
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if !row.Resolved || row.Itns != 1 {
		t.Fatalf("row %+v", row)
	}
	if row.LogC < 0.5 || row.LogC > 0.7 {
		t.Fatalf("logC %f", row.LogC)
	}
}

// A sweep that shares one registry (pskbench's -journal/-debug-addr
// registry) must still report each row's own work, and the shared
// registry must sum the rows. Pinned to Parallelism 1 so a row's work
// counters are reproducible.
func TestSweepRowsArePerRow(t *testing.T) {
	opts := Options{Filter: "queueE1", Timeout: 2 * time.Minute, Parallelism: 1}
	shared := opts
	shared.Metrics = obs.NewMetrics()
	rows := RunFig9(io.Discard, shared)
	if len(rows) != 3 {
		t.Fatalf("rows %d, want queueE1's 3 tests", len(rows))
	}
	var states int64
	for _, r := range rows {
		alone := RunOne(sketches.ByName(r.Bench), r.Test, opts)
		if r.Err != nil || alone.Err != nil {
			t.Fatalf("%s: sweep err %v, alone err %v", r.Test, r.Err, alone.Err)
		}
		if r.Itns != alone.Itns || r.MCStates != alone.MCStates ||
			r.MCTrans != alone.MCTrans || r.SATConfl != alone.SATConfl {
			t.Errorf("%s: sweep row itns/states/trans/conflicts %d/%d/%d/%d, alone %d/%d/%d/%d",
				r.Test, r.Itns, r.MCStates, r.MCTrans, r.SATConfl,
				alone.Itns, alone.MCStates, alone.MCTrans, alone.SATConfl)
		}
		states += int64(r.MCStates)
	}
	if got := shared.Metrics.Counter("mc.states").Get(); got != states {
		t.Errorf("shared registry mc.states %d, want the rows' sum %d", got, states)
	}
}

func TestRunOneTimeout(t *testing.T) {
	row := RunOne(sketches.QueueDE2(), "ed(ed|ed)", Options{Timeout: time.Millisecond})
	if row.Err == nil || !strings.Contains(row.Err.Error(), "timeout") {
		t.Fatalf("expected timeout, got %+v", row)
	}
}

func TestFig9AndFig10Output(t *testing.T) {
	var buf bytes.Buffer
	rows := RunFig9(&buf, Options{Filter: "queueE", Timeout: 5 * time.Minute})
	if len(rows) != 5 { // queueE1 ×3 + queueE2 ×2
		t.Fatalf("rows %d", len(rows))
	}
	if !strings.Contains(buf.String(), "paper") {
		t.Fatal("paper columns missing")
	}
	buf.Reset()
	Fig10(&buf, rows)
	if !strings.Contains(buf.String(), "slope") {
		t.Fatalf("no trend line:\n%s", buf.String())
	}
}

func TestPaperDataComplete(t *testing.T) {
	// Every benchmark/test in the grid has a paper row, and vice versa.
	for _, b := range sketches.All() {
		for _, test := range b.Tests {
			if _, ok := PaperRowFor(b.Name, test); !ok {
				t.Errorf("no paper row for %s %s", b.Name, test)
			}
		}
		if _, ok := PaperTable1[b.Name]; !ok {
			t.Errorf("no paper Table 1 entry for %s", b.Name)
		}
	}
	for _, r := range PaperFig9 {
		b := sketches.ByName(r.Bench)
		if b == nil {
			t.Errorf("paper row references unknown benchmark %s", r.Bench)
			continue
		}
		found := false
		for _, test := range b.Tests {
			if test == r.Test {
				found = true
			}
		}
		if !found {
			t.Errorf("paper row %s %s not in our grid", r.Bench, r.Test)
		}
	}
}
