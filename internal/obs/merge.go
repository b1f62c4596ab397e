package obs

import "strconv"

// HighWaterCounters names the registry counters that record peaks
// rather than sums. Everything that folds private registries or
// journals — Metrics.Fold for cube workers and bench rows, MergeJournals
// for trailers — must Max these and Add the rest, or a four-worker run
// would report four times the real heap high-water.
var HighWaterCounters = map[string]bool{
	"heap.max_bytes":   true,
	"mc.visited_bytes": true,
	"sat.vars":         true,
	"sat.clauses":      true,
}

// Fold merges the counters of src into m: high-water counters (see
// HighWaterCounters) take the maximum, all others add. A run that
// counts into a private registry folds it into a shared one when it
// ends, so the shared registry sums whole runs while each run's own
// registry stays per-run. Either side may be nil.
func (m *Metrics) Fold(src *Metrics) {
	if m == nil {
		return
	}
	for name, v := range src.Snapshot() {
		if HighWaterCounters[name] {
			m.Counter(name).Max(v)
		} else {
			m.Counter(name).Add(v)
		}
	}
}

// MergeJournals combines several run journals — typically one per
// process of a distributed cube run (psketch -serve-cubes and each
// -join worker) — into one. Span IDs are offset per input so the
// merged ID space stays collision-free while every parent/child edge
// is preserved; metrics trailers fold with the HighWaterCounters rule;
// the first journal's metadata wins, annotated with the input count.
// Nil and empty inputs are skipped; merging nothing returns an empty
// journal.
func MergeJournals(js ...*Journal) *Journal {
	out := &Journal{}
	merged := 0
	var base uint64
	for _, j := range js {
		if j == nil {
			continue
		}
		merged++
		if out.Meta == nil && j.Meta != nil {
			out.Meta = make(map[string]string, len(j.Meta)+1)
			for k, v := range j.Meta {
				out.Meta[k] = v
			}
		}
		var maxID uint64
		for _, s := range j.Spans {
			rec := s
			rec.ID = SpanID(uint64(s.ID) + base)
			if s.Parent != 0 {
				rec.Parent = SpanID(uint64(s.Parent) + base)
			}
			if uint64(s.ID) > maxID {
				maxID = uint64(s.ID)
			}
			out.Spans = append(out.Spans, rec)
		}
		base += maxID
		if j.Metrics != nil {
			if out.Metrics == nil {
				out.Metrics = make(map[string]int64, len(j.Metrics))
			}
			for k, v := range j.Metrics {
				if HighWaterCounters[k] {
					if v > out.Metrics[k] {
						out.Metrics[k] = v
					}
				} else {
					out.Metrics[k] += v
				}
			}
		}
	}
	if out.Meta != nil && merged > 1 {
		out.Meta["merged_journals"] = strconv.Itoa(merged)
	}
	return out
}
