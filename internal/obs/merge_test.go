package obs

import (
	"bytes"
	"testing"
)

// TestMergeJournals checks the structural merge rules: per-input span
// ID offsets that keep parent edges intact, sum-vs-high-water metric
// folding, and metadata annotation.
func TestMergeJournals(t *testing.T) {
	a := &Journal{
		Meta: map[string]string{"cmd": "psketch"},
		Spans: []SpanRecord{
			{ID: 1, Name: "root", Start: 0, Dur: 10},
			{ID: 2, Parent: 1, Name: "child", Start: 1, Dur: 5},
		},
		Metrics: map[string]int64{"cegis.iterations": 3, "heap.max_bytes": 100},
	}
	b := &Journal{
		Meta: map[string]string{"cmd": "psketch-join"},
		Spans: []SpanRecord{
			{ID: 1, Name: "root", Start: 0, Dur: 20},
			{ID: 5, Parent: 1, Name: "child", Start: 2, Dur: 6},
		},
		Metrics: map[string]int64{"cegis.iterations": 4, "heap.max_bytes": 70},
	}
	m := MergeJournals(a, nil, b)
	if len(m.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(m.Spans))
	}
	// b's IDs are offset by a's max ID (2): 1→3, 5→7, parent 1→3.
	if m.Spans[2].ID != 3 || m.Spans[3].ID != 7 || m.Spans[3].Parent != 3 {
		t.Errorf("offset IDs wrong: got %d/%d(parent %d)", m.Spans[2].ID, m.Spans[3].ID, m.Spans[3].Parent)
	}
	if m.Spans[1].Parent != 1 {
		t.Errorf("first journal's parent edge rewritten: %d", m.Spans[1].Parent)
	}
	if got := m.Metrics["cegis.iterations"]; got != 7 {
		t.Errorf("summed counter: got %d, want 7", got)
	}
	if got := m.Metrics["heap.max_bytes"]; got != 100 {
		t.Errorf("high-water counter: got %d, want max 100", got)
	}
	if m.Meta["cmd"] != "psketch" || m.Meta["merged_journals"] != "2" {
		t.Errorf("meta: %v", m.Meta)
	}
	if e := MergeJournals(); len(e.Spans) != 0 || e.Metrics != nil {
		t.Errorf("empty merge not empty: %+v", e)
	}
}

// TestMetricsFold checks the registry form of the same rule: sums add,
// high-water counters max, and a nil side is inert.
func TestMetricsFold(t *testing.T) {
	dst, src := NewMetrics(), NewMetrics()
	dst.Counter("mc.states").Add(5)
	dst.Counter("heap.max_bytes").Set(100)
	src.Counter("mc.states").Add(7)
	src.Counter("heap.max_bytes").Set(70)
	src.Counter("sat.vars").Set(9)
	dst.Fold(src)
	dst.Fold(nil)
	var none *Metrics
	none.Fold(src)
	want := map[string]int64{"mc.states": 12, "heap.max_bytes": 100, "sat.vars": 9}
	for name, v := range want {
		if got := dst.Counter(name).Get(); got != v {
			t.Errorf("%s: got %d, want %d", name, got, v)
		}
	}
}

// TestMergeSummarizeGolden pins the psktrace rendering of a merged
// journal pair (the multi-process psktrace invocation).
func TestMergeSummarizeGolden(t *testing.T) {
	a := readTestJournal(t, "sample.jsonl")
	b := readTestJournal(t, "sample2.jsonl")
	var buf bytes.Buffer
	Summarize(&buf, MergeJournals(a, b), 5)
	checkGolden(t, "merged_summary.golden", buf.Bytes())
}
